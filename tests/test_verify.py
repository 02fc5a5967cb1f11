"""The verify ensembles' block-by-block reductions against the whole-array
formulas of checks 8, 9 and 13, and their memory; the stacked checks 3-6
against their one-point-at-a-time loops."""

import itertools
import tracemalloc

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
    return run.final, run.l2, run.k, run.h, run.dip


def _quantum_reduced(run):
    return run.h, run.dip, run.last_state, run.lowest


def _assert_quantum_equal(got, expected):
    assert got[:2] == expected[:2] and got[3] == expected[3]
    assert np.array_equal(got[2], expected[2])


CUTS = [0, 5, 9, 12]  # three blocks of 5, 4 and 3 rows


def test_classical_reduction_across_blocks():
    rng = np.random.default_rng(11)
    states = rng.uniform(0.5, 1.5, size=(12, 3, 3))
    # S = 2 lx rises in every run, except a drop of 0.5 in run 0 that
    # straddles the first block boundary
    states[:, 0] = np.cumsum(rng.uniform(0.01, 0.02, size=(12, 3)), axis=0)
    states[5:, 0, 0] -= 0.5
    # k = ly / lz is constant in runs 0 and 2; run 1 has lz = 0, so no
    # defined k, until row 7 of the second block
    states[:, 1, [0, 2]] = 0.5 * states[:, 2, [0, 2]]
    states[:7, 2, 1] = 0.0
    run = verify._reduce_classical(states[0].T, _reused_blocks(states, CUTS))
    assert _classical_reduced(run) == _whole_classical(states)
    assert run.dip > 0.45
    assert run.k > 0.0


def test_quantum_reduction_across_blocks(ops):
    rng = np.random.default_rng(12)
    a = rng.normal(size=(12, 4, 4)) + 1j * rng.normal(size=(12, 4, 4))
    states = a + a.conj().transpose(0, 2, 1)
    # shift each state along lx (tr lx^2 = 2) so that <lx> rises, except
    # for a drop of 1 that straddles the first block boundary
    target = np.cumsum(rng.uniform(0.01, 0.02, size=12))
    target[5:] -= 1.0
    states += ((target - np.einsum("tij,ji->t", states, ops.lx).real) / 2.0)[:, None, None] * ops.lx
    lowest = rng.uniform(-1e-9, 1e-9, size=12)
    blocks = zip(_reused_blocks(states, CUTS), np.split(lowest, CUTS[1:-1]))
    got = _quantum_reduced(verify._reduce_quantum(blocks, ops))
    _assert_quantum_equal(got, _whole_quantum(states, lowest, ops))
    assert got[1] > 1.9  # S = 2 <lx> fell by 2


def test_reductions_of_real_runs(ops, monkeypatch):
    # 577 time points in blocks of 64: the last state is alone in its block
    monkeypatch.setattr(classical, "BLOCK_STEPS", 64)
    monkeypatch.setattr(quantum, "BLOCK_STEPS", 64)
    starts = verify._classical_starts(np.random.default_rng(5))[:6]
    starts[0, 2] = 0.0  # k undefined the whole run
    run = verify._reduce_classical(starts, integrate_blocks(starts, 0.576, 1e-3))
    whole = np.stack([integrate(start, 0.576, 1e-3).states for start in starts], axis=2)
    assert _classical_reduced(run) == _whole_classical(whole)
    for label in ("mixed", "basis:10"):
        rho0 = labelled_state(label)
        got = _quantum_reduced(verify._reduce_quantum(evolve_blocks(rho0, ops, 0.576, 1e-3), ops))
        traj = evolve(rho0, ops, 0.576, 1e-3)
        _assert_quantum_equal(got, _whole_quantum(traj.states, traj.min_eigenvalues, ops))


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
    block = 256
    monkeypatch.setattr(classical, "BLOCK_STEPS", block)
    monkeypatch.setattr(quantum, "BLOCK_STEPS", block)
    starts = verify._classical_starts(np.random.default_rng(3))[:20]

    def reduce(n_blocks):
        t_final = (n_blocks * block - 1) * 1e-3
        if kind == "classical":
            verify._reduce_classical(starts, integrate_blocks(starts, t_final, 1e-3))
        else:
            verify._reduce_quantum(evolve_blocks(np.eye(4) / 4.0, ops, t_final, 1e-3), ops)

    reduce(2)  # first calls allocate numpy's and the interpreter's caches
    short = _traced_peak(lambda: reduce(4))
    long = _traced_peak(lambda: reduce(40))
    # holding the 40-block run would take 4.9 MB (classical) or 2.6 MB
    # (quantum) of states alone
    assert long < 1.2 * short < 2**20


# checks 3-6 as they were written before they ran as stacks: one point,
# one eigensolver call and one report at a time


def _loop_stationary_spectrum(rng):
    worst = 0.0
    for i in range(100):
        params = quantum.random_stationary_params(rng, real_c=(i % 2 == 0))
        w = np.linalg.eigvalsh(quantum.stationary_state(params))
        disc = max(1.0 - 4.0 * (params.a * params.b - abs(params.c) ** 2), 0.0)
        roots = np.sort([0.5 * (1.0 - np.sqrt(disc)), 0.5 * (1.0 + np.sqrt(disc))])
        worst = max(worst, float(np.abs(w[:2]).max()), float(np.abs(w[2:] - roots).max()))
    return verify._result(3, worst <= 1e-10, f"worst spectral deviation {worst:.2e} (tol 1e-10)")


def _loop_pt_eigenvector(rng):
    v = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
    worst = 0.0
    for _ in range(100):
        params = quantum.random_stationary_params(rng)
        pt = entanglement.partial_transpose(quantum.stationary_state(params))
        worst = max(worst, float(np.abs(pt @ v - 0.5 * params.b * v).max()))
    return verify._result(4, worst <= 1e-12, f"worst eigenvector residual {worst:.2e} (tol 1e-12)")


def _loop_closed_form_spectrum(rng):
    worst = 0.0
    for _ in range(200):
        params = quantum.random_stationary_params(rng)
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
        params = quantum.random_stationary_params(rng, max_a=1.0 - 1e-3)
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
        params = draw(rng, **kwargs)
        k, skip = divmod(next(count), 5)
        b = 1e-12 * (k + 1)
        return params if skip else quantum.StationaryParams(1.0 - b, b, 1e-7 * (k + 1))

    return some_nearly_separable


def test_stacked_verdicts_name_failures_as_the_point_loop(monkeypatch):
    draw = quantum.random_stationary_params
    results = []
    for check in (verify._check_entanglement_verdicts, _loop_entanglement_verdicts):
        nearly_separable = _every_fifth_nearly_separable(draw)
        monkeypatch.setattr(quantum, "random_stationary_params", nearly_separable)
        results.append(check(np.random.default_rng(3)))
    stacked, looped = results
    assert not stacked.passed
    assert len(set(stacked.detail.split("; "))) == 40
    assert stacked == looped
