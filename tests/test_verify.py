"""The verify ensembles' block-by-block reductions against the whole-array
formulas of checks 8, 9 and 13, and their memory; the stacked checks 3-6
against their one-point-at-a-time loops; the bounded checks at and past
their bounds, and the bounds they print against their verdicts."""

import itertools
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from syncqubits import classical, entanglement, quantum, verify
from syncqubits.classical import integrate, integrate_blocks, tracked_scalars
from syncqubits.quantum import evolve, evolve_blocks, labelled_state


def _reused_blocks(whole, cuts):
    """whole[cuts[i]:cuts[i + 1]], each copied in turn into one reused
    buffer, as the integrators hand out their blocks."""
    buf = np.empty_like(whole)
    for a, b in zip(cuts[:-1], cuts[1:]):
        block = buf[: b - a]
        block[...] = whole[a:b]
        yield block


def _whole_classical(states):
    """Checks 8 and 9's formulas over whole runs; states is (T, 3, n)."""
    h_all, s_all, k_all = tracked_scalars(*(states[:, i].T for i in range(3)))
    worst_final = worst_l2 = worst_k = worst_h = worst_dip = 0.0
    for run, h_values, s_values, k_values in zip(states.transpose(2, 0, 1), h_all, s_all, k_all):
        length = float(np.linalg.norm(run[0]))
        lx, ly, lz = run[-1]
        worst_final = max(worst_final, abs(lx - length), abs(ly), abs(lz))
        l_sq = 2.0 * h_values
        worst_l2 = max(worst_l2, float(np.abs(l_sq - l_sq[0]).max()))
        k = k_values[~np.isnan(k_values)]
        if k.size:
            worst_k = max(worst_k, float(np.abs(k - k[0]).max()))
        worst_h = max(worst_h, float(np.abs(h_values - h_values[0]).max()))
        worst_dip = max(worst_dip, float(-np.diff(s_values).min()))
    return worst_final, worst_l2, worst_k, worst_h, worst_dip


def _whole_quantum(states, lowest, ops):
    """Checks 9 and 13's formulas over one whole run; check 9 starts its
    worst values at 0."""
    h = 0.5 * np.einsum("tij,ji->t", states, ops.l_squared).real
    s = 2.0 * np.einsum("tij,ji->t", states, ops.lx).real
    worst_h = max(0.0, float(np.abs(h - h[0]).max()))
    worst_dip = max(0.0, float(-np.diff(s).min()))
    return worst_h, worst_dip, states[-1], float(lowest.min())


def _classical_reduced(run):
    return run.final, 2.0 * run.h, run.k, run.h, run.dip


def _quantum_reduced(run):
    return run.h, run.dip, run.last_state, run.lowest


def _assert_quantum_equal(got, expected):
    assert got[:2] == expected[:2] and got[3] == expected[3]
    assert np.array_equal(got[2], expected[2])


CUTS = [0, 5, 9, 12]  # three blocks of 5, 4 and 3 rows


def test_classical_reduction_across_blocks():
    _check_classical_reduction(drop=5)  # S falls across the first boundary


def test_classical_reduction_of_a_drop_inside_a_block():
    _check_classical_reduction(drop=7)


def _check_classical_reduction(drop):
    """Crafted runs whose S falls at row ``drop``, reduced in CUTS blocks."""
    rng = np.random.default_rng(11)
    states = rng.uniform(0.5, 1.5, size=(12, 3, 3))
    # S = 2 lx rises in every run, except a drop of 0.5 in run 0
    states[:, 0] = np.cumsum(rng.uniform(0.01, 0.02, size=(12, 3)), axis=0)
    states[drop:, 0, 0] -= 0.5
    # k = ly / lz is constant in runs 0 and 2; run 1 has lz = 0, so no
    # defined k, until row 7 of the second block
    states[:, 1, [0, 2]] = 0.5 * states[:, 2, [0, 2]]
    states[:7, 2, 1] = 0.0
    run = verify._reduce_classical(states[0].T, _reused_blocks(states, CUTS))
    assert _classical_reduced(run) == _whole_classical(states)
    assert run.dip > 0.45
    assert run.k > 0.0


def test_quantum_reduction_across_blocks(ops):
    _check_quantum_reduction(ops, drop=5)  # S falls across the first boundary


def test_quantum_reduction_of_a_drop_inside_a_block(ops):
    _check_quantum_reduction(ops, drop=7)


def _check_quantum_reduction(ops, drop):
    """A crafted run whose S falls at row ``drop``, reduced in CUTS blocks."""
    rng = np.random.default_rng(12)
    a = rng.normal(size=(12, 4, 4)) + 1j * rng.normal(size=(12, 4, 4))
    states = a + a.conj().transpose(0, 2, 1)
    # shift each state along lx (tr lx^2 = 2) so that <lx> rises, except
    # for a drop of 1
    target = np.cumsum(rng.uniform(0.01, 0.02, size=12))
    target[drop:] -= 1.0
    states += ((target - np.einsum("tij,ji->t", states, ops.lx).real) / 2.0)[:, None, None] * ops.lx
    lowest = rng.uniform(-1e-9, 1e-9, size=12)
    blocks = zip(_reused_blocks(states, CUTS), np.split(lowest, CUTS[1:-1]))
    got = _quantum_reduced(verify._reduce_quantum(blocks))
    _assert_quantum_equal(got, _whole_quantum(states, lowest, ops))
    assert got[1] > 1.9  # S = 2 <lx> fell by 2


def test_reductions_of_real_runs(ops, monkeypatch):
    # 577 time points in blocks of 64: the last state is alone in its block
    # (a stack of six runs holds BLOCK_STEPS // 6 time points a block)
    monkeypatch.setattr(classical, "BLOCK_STEPS", 64 * 6)
    monkeypatch.setattr(quantum, "BLOCK_STEPS", 64)
    starts = verify._classical_starts(np.random.default_rng(5))[:6]
    starts[0, 2] = 0.0  # k undefined the whole run
    run = verify._reduce_classical(starts, integrate_blocks(starts, 0.576, 1e-3))
    whole = np.stack([integrate(start, 0.576, 1e-3) for start in starts], axis=2)
    assert _classical_reduced(run) == _whole_classical(whole)
    for label in ("mixed", "basis:10"):
        rho0 = labelled_state(label)
        got = _quantum_reduced(verify._reduce_quantum(evolve_blocks(rho0, 0.576, 1e-3)))
        states = evolve(rho0, ops, 0.576, 1e-3)
        lowest = np.concatenate([low for _, low in evolve_blocks(rho0, 0.576, 1e-3)])
        _assert_quantum_equal(got, _whole_quantum(states, lowest, ops))


@pytest.mark.parametrize("block_steps", [50, 350, 2048 * 50], ids=["1-row", "7-row", "2048-row"])
def test_block_length_does_not_change_verify_reductions(monkeypatch, block_steps):
    # verify's 50 starts to t = 0.3 in blocks of 1, 7 and 2048 time points
    monkeypatch.setattr(classical, "BLOCK_STEPS", block_steps)
    starts = verify._classical_starts(np.random.default_rng(verify.DEFAULT_SEED))
    run = verify._reduce_classical(starts, integrate_blocks(starts, 0.3, 1e-3))
    whole = np.stack([integrate(start, 0.3, 1e-3) for start in starts], axis=2)
    assert _classical_reduced(run) == _whole_classical(whole)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_reduction_memory_does_not_grow_with_run_length(ops, monkeypatch, kind):
    block = 256  # time points a block, for the stack of 20 runs too
    monkeypatch.setattr(classical, "BLOCK_STEPS", block * 20)
    monkeypatch.setattr(quantum, "BLOCK_STEPS", block)
    starts = verify._classical_starts(np.random.default_rng(3))[:20]

    def reduce(n_blocks):
        t_final = (n_blocks * block - 1) * 1e-3
        if kind == "classical":
            verify._reduce_classical(starts, integrate_blocks(starts, t_final, 1e-3))
        else:
            verify._reduce_quantum(evolve_blocks(np.eye(4) / 4.0, t_final, 1e-3))

    reduce(2)  # first calls allocate numpy's and the interpreter's caches
    short = _traced_peak(lambda: reduce(4))
    long = _traced_peak(lambda: reduce(40))
    # holding the 40-block run would take 4.9 MB (classical) or 2.6 MB
    # (quantum) of states alone
    assert long < 1.2 * short < 2**20


def test_classical_reduction_memory_at_verify_width():
    # verify's 50 runs to 4,097 time points: one block of BLOCK_STEPS time
    # points alone would be 2.4 MB, one of BLOCK_STEPS states is 48 kB
    starts = verify._classical_starts(np.random.default_rng(verify.DEFAULT_SEED))

    def reduce(t_final):
        verify._reduce_classical(starts, integrate_blocks(starts, t_final, 1e-3))

    reduce(0.1)  # first calls allocate numpy's and the interpreter's caches
    assert _traced_peak(lambda: reduce(4.096)) < 0.5 * 2**20


# checks 3-6 as they were written before they ran as stacks: one point,
# one eigensolver call and one report at a time


def _loop_stationary_spectrum(rng):
    worst = 0.0
    for i in range(100):
        coefficients = quantum.random_stationary_coefficients(rng, real_c=(i % 2 == 0))
        params = quantum.StationaryParams(*coefficients)
        w = np.linalg.eigvalsh(quantum.stationary_state(params))
        disc = max(1.0 - 4.0 * (params.a * params.b - abs(params.c) ** 2), 0.0)
        roots = np.sort([0.5 * (1.0 - np.sqrt(disc)), 0.5 * (1.0 + np.sqrt(disc))])
        worst = max(worst, float(np.abs(w[:2]).max()), float(np.abs(w[2:] - roots).max()))
    return verify._result(3, worst <= 1e-10, f"worst spectral deviation {worst:.2e} (tol 1e-10)")


def _loop_pt_eigenvector(rng):
    v = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
    worst = 0.0
    for _ in range(100):
        params = quantum.StationaryParams(*quantum.random_stationary_coefficients(rng))
        pt = entanglement.partial_transpose(quantum.stationary_state(params))
        worst = max(worst, float(np.abs(pt @ v - 0.5 * params.b * v).max()))
    return verify._result(4, worst <= 1e-12, f"worst eigenvector residual {worst:.2e} (tol 1e-12)")


def _loop_closed_form_spectrum(rng):
    worst = 0.0
    for _ in range(200):
        params = quantum.StationaryParams(*quantum.random_stationary_coefficients(rng))
        pt = entanglement.partial_transpose(quantum.stationary_state(params))
        numeric = np.linalg.eigvalsh(pt)
        closed = np.sort(np.append(entanglement.cubic_roots(params), 0.5 * params.b))
        worst = max(worst, float(np.abs(numeric - closed).max()))
    return verify._result(5, worst <= 1e-9, f"worst spectrum gap {worst:.2e} (tol 1e-9)")


def _loop_entanglement_verdicts(rng):
    failures = []
    largest_min = -np.inf
    for b in np.linspace(0.02, 1.0, 50):
        report = entanglement.ppt_analyze(quantum.StationaryParams(1.0 - b, b, 0.0))
        largest_min = max(largest_min, report.min_eigenvalue)
        if not report.min_eigenvalue < -1e-12:
            failures.append(f"b = {b:g} not entangled")
    for _ in range(200):
        coefficients = quantum.random_stationary_coefficients(rng, max_a=1.0 - 1e-3)
        params = quantum.StationaryParams(*coefficients)
        report = entanglement.ppt_analyze(params)
        largest_min = max(largest_min, report.min_eigenvalue)
        if not report.min_eigenvalue < -1e-12:
            failures.append(f"a = {params.a:g}, c = {params.c.real:g} not entangled")
    corner = entanglement.ppt_analyze(quantum.StationaryParams(1.0, 0.0, 0.0))
    corner_gap = float(np.abs(corner.eigenvalues - np.array([0.0, 0.0, 0.0, 1.0])).max())
    if not corner.separable or corner_gap > 1e-10:
        failures.append(f"b = 0 corner wrong (gap {corner_gap:.2e})")
    detail = (
        f"250 entangled verdicts (largest min eigenvalue {largest_min:.2e}), "
        f"b = 0 separable (gap {corner_gap:.2e})"
    )
    return verify._result(6, not failures, "; ".join(failures) if failures else detail)


def _checks_3_to_6(checks, seed):
    """Checks 3-6 in verify's order, on the generator's state at check 3 of
    run_all(seed)."""
    rng = np.random.default_rng(seed)
    verify._classical_starts(rng)
    return [check(rng) for check in checks]


STACKED = (
    verify._check_stationary_spectrum,
    verify._check_pt_eigenvector,
    verify._check_closed_form_spectrum,
    verify._check_entanglement_verdicts,
)
LOOPED = (
    _loop_stationary_spectrum,
    _loop_pt_eigenvector,
    _loop_closed_form_spectrum,
    _loop_entanglement_verdicts,
)


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 0, 1, 7, 2024, 99991])
def test_stacked_checks_match_the_point_loops(seed):
    stacked = _checks_3_to_6(STACKED, seed)
    assert [r.passed for r in stacked] == [True] * 4
    assert stacked == _checks_3_to_6(LOOPED, seed)


def _every_fifth_nearly_separable(draw):
    """``draw`` with every fifth point replaced, after the generator has
    moved on as usual, by a distinct point of singlet weight b ~ 1e-12,
    too small for check 6 to call entangled."""
    count = itertools.count()

    def some_nearly_separable(rng, **kwargs):
        coefficients = draw(rng, **kwargs)
        k, skip = divmod(next(count), 5)
        b = 1e-12 * (k + 1)
        return coefficients if skip else (1.0 - b, b, complex(1e-7 * (k + 1)))

    return some_nearly_separable


def test_stacked_verdicts_name_failures_as_the_point_loop(monkeypatch):
    draw = quantum.random_stationary_coefficients
    results = []
    for check in (verify._check_entanglement_verdicts, _loop_entanglement_verdicts):
        nearly_separable = _every_fifth_nearly_separable(draw)
        monkeypatch.setattr(quantum, "random_stationary_coefficients", nearly_separable)
        results.append(check(np.random.default_rng(3)))
    stacked, looped = results
    assert not stacked.passed
    assert len(set(stacked.detail.split("; "))) == 40
    assert stacked == looped


def test_stacked_check_validates_its_draws_once(monkeypatch):
    # the 100 draws of check 3 are validated as one stack, not one by one
    calls = []
    check_params = quantum._check_params

    def counted(*args):
        calls.append(args)
        return check_params(*args)

    monkeypatch.setattr(quantum, "_check_params", counted)
    result = verify._check_stationary_spectrum(np.random.default_rng(verify.DEFAULT_SEED))
    assert result.passed
    assert len(calls) == 1
    assert [np.shape(x) for x in calls[0]] == [(100,)] * 3


def _reduction(**values):
    """A verify._Reduction holding ``values`` and the defaults for the rest."""
    run = verify._Reduction()
    vars(run).update(values)
    return run


@pytest.fixture
def residual_is_state(monkeypatch):
    # check 13 reads each run's endpoint residual as its last state
    monkeypatch.setattr(quantum, "project_to_stationary", lambda state: SimpleNamespace(residual=state))


def _check_13(residual=0.0, lowest=0.0):
    return verify._check_quantum_convergence([_reduction(last_state=residual, lowest=lowest)])


# (check of one measured value, its kind of bound, the bound)
BOUNDED = [
    (lambda v: verify._check_classical_convergence(_reduction(final=v)), "tol", 1e-5),
    (lambda v: verify._check_classical_convergence(_reduction(h=v / 2)), "tol", 1e-8),  # |l|^2 = 2 H
    (lambda v: verify._check_classical_convergence(_reduction(k=v)), "tol", 1e-6),
    (lambda v: verify._check_monotone_invariants(_reduction(h=v), [_reduction()]), "tol", 1e-8),
    (lambda v: verify._check_monotone_invariants(_reduction(), [_reduction(dip=v)]), "tol", 1e-10),
    (lambda v: _check_13(residual=v), "tol", 1e-8),
    (lambda v: _check_13(lowest=v), "floor", -1e-8),
]


@pytest.mark.parametrize(
    "check, kind, bound",
    BOUNDED,
    ids=["8-endpoint", "8-l2", "8-k", "9-H", "9-S", "13-residual", "13-lowest"],
)
def test_bounded_check_passes_at_its_bound_and_fails_past_it(residual_is_state, check, kind, bound):
    assert check(bound).passed
    assert not check(float(np.nextafter(bound, -np.inf if kind == "floor" else np.inf))).passed


def test_failing_bounded_checks_read_as_before(residual_is_state):
    assert verify._check_classical_convergence(_reduction(final=2e-5)) == verify._result(
        8,
        False,
        "worst endpoint deviation 2.00e-05 (tol 1e-5), |l^2| drift 0.00e+00 (tol 1e-8), "
        "k drift 0.00e+00 (tol 1e-6)",
    )
    assert verify._check_monotone_invariants(_reduction(), [_reduction(dip=3e-10)]) == verify._result(
        9, False, "worst H drift 0.00e+00 (tol 1e-8), worst S decrease 3.00e-10 (tol 1e-10)"
    )
    assert _check_13(lowest=-2e-8) == verify._result(
        13,
        False,
        "worst endpoint residual 0.00e+00 (tol 1e-8), "
        "lowest eigenvalue along runs -2.00e-08 (floor -1e-8)",
    )


def test_kernel_check_fails_on_a_wrong_span(ops):
    dark = (quantum.KERNEL_BASIS.psi1, quantum.KERNEL_BASIS.psi2)
    assert verify._check_kernel(2, ops.jump, dark[:1], 1e-10) == verify._result(
        2, False, "kernel dimension 2, expected 1"
    )
    # dark[1] turned by 1e-3 toward a unit vector orthogonal to both dark states
    off = np.array([1, 0, 0, 0]) - sum(np.vdot(u, [1, 0, 0, 0]) * u for u in dark)
    tilted = (dark[0], np.cos(1e-3) * dark[1] + np.sin(1e-3) * off / np.linalg.norm(off))
    failed = verify._check_kernel(2, ops.jump, tilted, 1e-10)
    assert not failed.passed
    assert re.fullmatch(r"kernel dim 2, worst principal angle 1\.00e-03 \(tol 1e-10\)", failed.detail)
    assert verify._check_kernel(2, ops.jump, tilted, 1e-3).passed


def test_quantum_convergence_tells_c_from_its_conjugate(monkeypatch):
    # the last quantum start has a complex coherence: a stationary family
    # that swaps c and conj(c) puts the run's endpoint far from it
    run = verify._reduce_quantum(quantum.evolve_blocks(verify._quantum_starts()[-1], 20.0, 1e-3))
    assert verify._check_quantum_convergence([run]).passed
    combination = quantum._kernel_combination
    monkeypatch.setattr(quantum, "_kernel_combination", lambda a, b, c: combination(a, b, np.conj(c)))
    swapped = verify._check_quantum_convergence([run])
    assert not swapped.passed
    assert swapped.detail.startswith("worst endpoint residual 2.50e-01 (tol 1e-8)")


PRINTED_TERM = re.compile(r"(-?\d\.\d\de[-+]\d\d) \((tol|floor) (-?\d+(?:\.\d+)?e-\d+)\)")


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 7])
def test_printed_bounds_agree_with_the_verdicts(verify_results, seed):
    results = verify_results if seed == verify.DEFAULT_SEED else verify.run_all(seed)
    terms = 0
    for result in results:
        for value, kind, bound in PRINTED_TERM.findall(result.detail):
            held = float(value) <= float(bound) if kind == "tol" else float(value) >= float(bound)
            assert held == result.passed, result
            terms += 1
    assert terms == 15  # every bound of checks 2-5 and 7-13



def _nan_in(monkeypatch, module, name, index, call=0):
    """Patch ``module.name`` so that its result on call number ``call``
    holds NaN at ``index``."""
    fn = getattr(module, name)
    calls = itertools.count()

    def patched(*args, **kwargs):
        out = np.array(fn(*args, **kwargs))
        if next(calls) == call:
            out[index] = np.nan
        return out

    monkeypatch.setattr(module, name, patched)


def _nan_classical_run():
    """Check 8 on crafted runs with one NaN state component, in the second
    of three blocks."""
    states = np.random.default_rng(13).uniform(0.5, 1.5, size=(12, 3, 3))
    states[7, 1, 2] = np.nan
    run = verify._reduce_classical(states[0].T, _reused_blocks(states, CUTS))
    return verify._check_classical_convergence(run)


def _nan_lowest_eigenvalue():
    """Check 13 on a constant stationary run with one NaN lowest
    eigenvalue, in the second of three blocks."""
    state = quantum.stationary_state(quantum.StationaryParams(0.5, 0.5, 0.0))
    lowest = np.zeros(12)
    lowest[7] = np.nan
    blocks = zip(_reused_blocks(np.stack([state] * 12), CUTS), np.split(lowest, CUTS[1:-1]))
    return verify._check_quantum_convergence([verify._reduce_quantum(blocks)])


def _nan_residual():
    """Check 13 on two runs, the second ending in a NaN state."""
    good = quantum.stationary_state(quantum.StationaryParams(0.5, 0.5, 0.0))
    runs = [_reduction(last_state=good), _reduction(last_state=np.full((4, 4), np.nan))]
    return verify._check_quantum_convergence(runs)


DARK = [quantum.KERNEL_BASIS.psi1, quantum.KERNEL_BASIS.psi2]
DARK_PRODUCTS = [quantum.vec(np.outer(u, v.conj())) for u in DARK for v in DARK]

# a bounded check: where one NaN is put (module, attribute, index, call
# number) or None, and the check to run
WITH_ONE_NAN = {
    "2-kernel": (
        (verify, "principal_angles", -1, 0),
        lambda: verify._check_kernel(2, quantum.OPERATORS.jump, DARK, 1e-10),
    ),
    "3-spectrum": (
        (np.linalg, "eigvalsh", (7, 3), 0),
        lambda: verify._check_stationary_spectrum(np.random.default_rng(1)),
    ),
    "4-eigenvector": (
        (entanglement, "partial_transpose", (7, 0, 0), 0),
        lambda: verify._check_pt_eigenvector(np.random.default_rng(1)),
    ),
    "5-closed-form": (
        (entanglement, "cubic_roots", (7, 1), 0),
        lambda: verify._check_closed_form_spectrum(np.random.default_rng(1)),
    ),
    "7-singlet": (
        (entanglement, "cubic_roots", 1, 1),  # call 0 is ppt_analyze's own
        verify._check_singlet_corner,
    ),
    "8-classical": (None, _nan_classical_run),
    "9-invariants": (
        None,
        lambda: verify._check_monotone_invariants(_reduction(), [_reduction(), _reduction(h=np.nan)]),
    ),
    "10-fields": (
        (classical, "dissipative_field", 1, 50),
        lambda: verify._check_field_equivalence(np.random.default_rng(1)),
    ),
    "11-ehrenfest": (
        (quantum, "ehrenfest_lx", (), 50),
        lambda: verify._check_ehrenfest_identity(np.random.default_rng(1)),
    ),
    "12-liouvillian-kernel": (
        (verify, "principal_angles", -1, 0),
        lambda: verify._check_kernel(12, quantum.liouvillian_matrix(), DARK_PRODUCTS, 1e-8),
    ),
    "13-residual": (None, _nan_residual),
    "13-lowest": (None, _nan_lowest_eigenvalue),
}


@pytest.mark.parametrize("nan_at, check", WITH_ONE_NAN.values(), ids=WITH_ONE_NAN.keys())
def test_bounded_check_fails_on_one_nan(monkeypatch, nan_at, check):
    # a NaN after the first value must not be skipped by the reduction
    if nan_at:
        _nan_in(monkeypatch, *nan_at)
    result = check()
    assert not result.passed
    assert "nan" in result.detail
