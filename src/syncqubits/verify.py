"""Numbered numerical self-checks of the package's quantitative claims.

:func:`run_all` executes thirteen checks with a fixed seed and returns one
:class:`CheckResult` each; the command-line ``verify`` subcommand prints
them.  Tolerances are part of each check and are deliberately not
configurable.  The expensive ingredients (an ensemble of long classical
runs and a handful of long master-equation runs) are reduced block by block
as they are integrated, so their memory does not grow with the run length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classical, entanglement, quantum
from .linalg import null_space, principal_angles

DEFAULT_SEED = 12345

#: check keys in execution order; index i belongs to check number i + 1
CHECK_KEYS = [
    "jump-operator-matrix",
    "jump-kernel-basis",
    "stationary-spectrum",
    "pt-eigenvector",
    "pt-closed-form-spectrum",
    "entanglement-verdicts",
    "singlet-corner",
    "classical-convergence",
    "invariant-monotonicity",
    "field-equivalence",
    "ehrenfest-identity",
    "liouvillian-kernel",
    "quantum-convergence",
]


@dataclass(frozen=True)
class CheckResult:
    number: int
    key: str
    passed: bool
    detail: str


def _result(number: int, passed: bool, detail: str) -> CheckResult:
    return CheckResult(number=number, key=CHECK_KEYS[number - 1], passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# shared ensembles


def _classical_starts(rng):
    """50 random states with 1/2 <= |l| <= 2 as a (50, 3) stack, sampled
    away from the measure-zero ly = lz = 0 line where nothing ever moves."""
    starts = []
    while len(starts) < 50:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        length = np.sqrt(rng.uniform(0.25, 4.0))
        start = length * direction
        if abs(start[1]) + abs(start[2]) < 1e-8:
            continue
        starts.append(start)
    return np.array(starts)


class _Reduction:
    """Checks 8, 9 and 13's worst values over the blocks of a run or a stack
    of runs.  :meth:`add` takes H's drift and S's largest one-step decrease
    from blocks in time order (time on axis 0), carrying the last S over."""

    def __init__(self):
        self.h0 = self.s_last = self.last_state = None
        self.h = self.dip = self.final = self.l2 = self.k = 0.0
        self.lowest = np.inf

    def add(self, h, s):
        if self.h0 is None:
            self.h0, self.s_last = h[:1], s[:1]
        self.h = max(self.h, float(np.abs(h - self.h0).max()))
        self.dip = max(self.dip, float(-np.diff(s, axis=0, prepend=self.s_last).min()))
        self.s_last = s[-1:]


def _classical_ensemble(rng):
    """Runs to t = 50 (dt = 1e-3) from :func:`_classical_starts`, integrated
    as one stack."""
    starts = _classical_starts(rng)
    return _reduce_classical(starts, classical.integrate_blocks(starts, 50.0, 1e-3))


def _reduce_classical(starts, blocks) -> _Reduction:
    """(m, 3, n) state blocks of runs from ``starts`` reduced as in
    :meth:`_Reduction.add`, plus the endpoint deviation from (|l|, 0, 0) and
    the drift of |l|^2 and of k from each run's first defined k."""
    run = _Reduction()
    k0 = np.full(len(starts), np.nan)
    for block in blocks:
        h, s, k = classical.tracked_scalars(block[:, 0], block[:, 1], block[:, 2])
        run.add(h, s)
        run.l2 = max(run.l2, float(np.abs(2.0 * h - 2.0 * run.h0).max()))
        # each run's first defined k in this block, NaN where it has none
        first = k[np.argmax(~np.isnan(k), axis=0), np.arange(len(starts))]
        k0 = np.where(np.isnan(k0), first, k0)
        run.k = float(np.fmax.reduce(np.abs(k - k0), axis=None, initial=run.k))
    for start, (lx, ly, lz) in zip(starts, block[-1].T):
        run.final = max(run.final, abs(lx - float(np.linalg.norm(start))), abs(ly), abs(lz))
    return run


def _quantum_ensemble(ops):
    """Master-equation runs to t = 20 (dt = 1e-3) from the maximally mixed
    state and each of the four basis projectors."""
    labels = ("mixed", "basis:00", "basis:01", "basis:10", "basis:11")
    starts = (quantum.labelled_state(label) for label in labels)
    return [_reduce_quantum(quantum.evolve_blocks(rho, ops, 20.0, 1e-3), ops) for rho in starts]


def _reduce_quantum(blocks, ops) -> _Reduction:
    """(states, lowest eigenvalues) blocks of one run reduced as in
    :meth:`_Reduction.add` with H = <l^2>/2 and S = 2<lx>, plus the last
    state and the lowest eigenvalue."""
    run = _Reduction()
    for states, lowest in blocks:
        h = 0.5 * np.einsum("tij,ji->t", states, ops.l_squared).real
        run.add(h, 2.0 * np.einsum("tij,ji->t", states, ops.lx).real)
        run.lowest = min(run.lowest, float(lowest.min()))
    run.last_state = states[-1].copy()
    return run


# ---------------------------------------------------------------------------
# the thirteen checks


def _check_jump_matrix(ops):
    """1: the built jump operator equals its closed-form entries exactly."""
    expected = 0.5 * np.array(
        [[2, -1, -1, 0], [1, 0, 0, -1], [1, 0, 0, -1], [0, 1, 1, -2]], dtype=complex
    )
    built = np.array_equal(ops.jump, expected)
    composed = np.array_equal(ops.jump, ops.lz - 1j * ops.ly)
    return _result(1, built and composed, "entrywise exact" if built and composed else "entries differ")


def _check_kernel(ops):
    """2: the jump operator's kernel is exactly the two dark states."""
    kern = null_space(ops.jump)
    if len(kern) != 2:
        return _result(2, False, f"kernel dimension {len(kern)}, expected 2")
    basis = quantum.KERNEL_BASIS
    angle = float(principal_angles(kern, [basis.psi1, basis.psi2]).max())
    return _result(2, angle <= 1e-10, f"kernel dim 2, worst principal angle {angle:.2e} (tol 1e-10)")


def _stack(points) -> quantum.StationaryParams:
    """Points drawn one by one, in order, as one stack."""
    points = list(points)
    return quantum.StationaryParams(*([getattr(p, name) for p in points] for name in "abc"))


def _check_stationary_spectrum(rng):
    """3: stationary states have two zero eigenvalues and two roots of
    x^2 - x + (a b - |c|^2), for 100 random parameter sets."""
    params = _stack(quantum.random_stationary_params(rng, real_c=(i % 2 == 0)) for i in range(100))
    w = np.linalg.eigvalsh(quantum.stationary_state(params))
    c2 = np.float_power(np.hypot(params.c.real, params.c.imag), 2)  # abs(c) ** 2 bit for bit
    disc = np.maximum(1.0 - 4.0 * (params.a * params.b - c2), 0.0)
    roots = np.stack([0.5 * (1.0 - np.sqrt(disc)), 0.5 * (1.0 + np.sqrt(disc))], axis=-1)
    worst = max(float(np.abs(w[:, :2]).max()), float(np.abs(w[:, 2:] - roots).max()))
    return _result(3, worst <= 1e-10, f"worst spectral deviation {worst:.2e} (tol 1e-10)")


def _check_pt_eigenvector(rng):
    """4: (1, 0, 0, -1)/sqrt(2) is an eigenvector of the transposed state
    with eigenvalue b/2, for 100 random real-c parameter sets."""
    v = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
    params = _stack(quantum.random_stationary_params(rng) for _ in range(100))
    pt = entanglement.partial_transpose(quantum.stationary_state(params))
    worst = float(np.abs(pt @ v - 0.5 * params.b[:, None] * v).max())
    return _result(4, worst <= 1e-12, f"worst eigenvector residual {worst:.2e} (tol 1e-12)")


def _check_closed_form_spectrum(rng):
    """5: closed-form and numerical transposed spectra agree, 200 samples."""
    params = _stack(quantum.random_stationary_params(rng) for _ in range(200))
    numeric = np.linalg.eigvalsh(entanglement.partial_transpose(quantum.stationary_state(params)))
    closed = np.concatenate([entanglement.cubic_roots(params), 0.5 * params.b[:, None]], axis=-1)
    worst = float(np.abs(numeric - np.sort(closed, axis=-1)).max())
    return _result(5, worst <= 1e-9, f"worst spectrum gap {worst:.2e} (tol 1e-9)")


def _check_entanglement_verdicts(rng):
    """6: every stationary state with b > 0 is entangled; b = 0 is the one
    separable point, with spectrum {1, 0, 0, 0}."""
    b = np.linspace(0.02, 1.0, 50)
    line = entanglement.ppt_analyze(quantum.StationaryParams(1.0 - b, b, 0.0))
    params = _stack(quantum.random_stationary_params(rng, max_a=1.0 - 1e-3) for _ in range(200))
    spread = entanglement.ppt_analyze(params)
    failures = [f"b = {x:g} not entangled" for x in b[~(line.min_eigenvalue < -1e-12)]]
    missed = ~(spread.min_eigenvalue < -1e-12)
    failures += [
        f"a = {a:g}, c = {c.real:g} not entangled"
        for a, c in zip(params.a[missed], params.c[missed])
    ]
    largest_min = float(max(line.min_eigenvalue.max(), spread.min_eigenvalue.max()))
    corner = entanglement.ppt_analyze(quantum.StationaryParams(1.0, 0.0, 0.0))
    corner_gap = float(np.abs(corner.eigenvalues - np.array([0.0, 0.0, 0.0, 1.0])).max())
    if not corner.separable or corner_gap > 1e-10:
        failures.append(f"b = 0 corner wrong (gap {corner_gap:.2e})")
    detail = (
        f"250 entangled verdicts (largest min eigenvalue {largest_min:.2e}), "
        f"b = 0 separable (gap {corner_gap:.2e})"
    )
    return _result(6, not failures, "; ".join(failures) if failures else detail)


def _check_singlet_corner():
    """7: the pure singlet has negativity 1/2 and cubic roots (-1/2, 1/2, 1/2)."""
    report = entanglement.ppt_analyze(quantum.StationaryParams(0.0, 1.0, 0.0))
    roots = entanglement.cubic_roots(quantum.StationaryParams(0.0, 1.0, 0.0))
    neg_err = abs(report.negativity - 0.5)
    root_err = float(np.abs(roots - np.array([-0.5, 0.5, 0.5])).max())
    worst = max(neg_err, root_err)
    return _result(7, worst <= 1e-10, f"negativity and double root within {worst:.2e} (tol 1e-10)")


def _check_classical_convergence(runs):
    """8: 50 random classical states reach (|l|, 0, 0) by t = 50 while
    conserving |l|^2 and the ratio k."""
    passed = runs.final <= 1e-5 and runs.l2 <= 1e-8 and runs.k <= 1e-6
    return _result(
        8,
        passed,
        f"worst endpoint deviation {runs.final:.2e} (tol 1e-5), "
        f"|l^2| drift {runs.l2:.2e} (tol 1e-8), k drift {runs.k:.2e} (tol 1e-6)",
    )


def _check_monotone_invariants(classical_runs, quantum_runs):
    """9: H stays constant and S never decreases, classically and quantumly."""
    worst_h = max(run.h for run in (classical_runs, *quantum_runs))
    worst_dip = max(run.dip for run in (classical_runs, *quantum_runs))
    passed = worst_h <= 1e-8 and worst_dip <= 1e-10
    return _result(
        9,
        passed,
        f"worst H drift {worst_h:.2e} (tol 1e-8), worst S decrease {worst_dip:.2e} (tol 1e-10)",
    )


def _check_field_equivalence(rng):
    """10: direct, coupling-function and quasithermodynamic forms of the
    classical field agree at 100 random points."""
    worst = 0.0
    for _ in range(100):
        point = rng.uniform(-2.0, 2.0, size=3)
        direct = classical.classical_field(point)
        dissip = classical.dissipative_field(point)
        quasi = classical.quasithermo_field(point)
        worst = max(
            worst,
            float(np.abs(direct - dissip).max()),
            float(np.abs(direct - quasi).max()),
        )
    return _result(10, worst <= 1e-12, f"worst field mismatch {worst:.2e} (tol 1e-12)")


def _check_ehrenfest_identity(rng, ops):
    """11: d<lx>/dt computed as 2 Re tr(rho J+J) matches tr(lx d rho/dt)
    for 100 random density matrices."""
    worst = 0.0
    for _ in range(100):
        rho = quantum.random_density_matrix(rng)
        direct = quantum.ehrenfest_lx(rho, ops)
        via_rhs = float(np.trace(ops.lx @ quantum.lindblad_rhs(rho, ops)).real)
        worst = max(worst, abs(direct - via_rhs))
    return _result(11, worst <= 1e-12, f"worst identity gap {worst:.2e} (tol 1e-12)")


def _check_liouvillian_kernel(ops):
    """12: the 16x16 generator has a four-dimensional kernel spanned by the
    vectorized dark-state outer products."""
    kern = null_space(quantum.liouvillian_matrix(ops))
    if len(kern) != 4:
        return _result(12, False, f"kernel dimension {len(kern)}, expected 4")
    basis = quantum.KERNEL_BASIS
    span = [
        quantum.vec(np.outer(u, v.conj()))
        for u in (basis.psi1, basis.psi2)
        for v in (basis.psi1, basis.psi2)
    ]
    angle = float(principal_angles(kern, span).max())
    return _result(12, angle <= 1e-8, f"kernel dim 4, worst principal angle {angle:.2e} (tol 1e-8)")


def _check_quantum_convergence(runs):
    """13: long master-equation runs land on the stationary family and stay
    positive the whole way."""
    worst_residual = max(quantum.project_to_stationary(r.last_state).residual for r in runs)
    worst_eig = min(r.lowest for r in runs)
    passed = worst_residual <= 1e-8 and worst_eig >= -1e-8
    return _result(
        13,
        passed,
        f"worst endpoint residual {worst_residual:.2e} (tol 1e-8), "
        f"lowest eigenvalue along runs {worst_eig:.2e} (floor -1e-8)",
    )


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the thirteen checks in order and return their results."""
    rng = np.random.default_rng(seed)
    ops = quantum.build_operators()
    classical_runs = _classical_ensemble(rng)
    quantum_runs = _quantum_ensemble(ops)
    return [
        _check_jump_matrix(ops),
        _check_kernel(ops),
        _check_stationary_spectrum(rng),
        _check_pt_eigenvector(rng),
        _check_closed_form_spectrum(rng),
        _check_entanglement_verdicts(rng),
        _check_singlet_corner(),
        _check_classical_convergence(classical_runs),
        _check_monotone_invariants(classical_runs, quantum_runs),
        _check_field_equivalence(rng),
        _check_ehrenfest_identity(rng, ops),
        _check_liouvillian_kernel(ops),
        _check_quantum_convergence(quantum_runs),
    ]
