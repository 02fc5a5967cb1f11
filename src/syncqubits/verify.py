"""Numbered numerical self-checks of the package's quantitative claims.

:func:`run_all` executes thirteen checks with a fixed seed and returns one
:class:`CheckResult` each; the command-line ``verify`` subcommand prints
them.  Tolerances are part of each check and are deliberately not
configurable; a bounded check states each as one term of :func:`_bounded`,
which both decides PASS/FAIL and prints it.  The expensive ingredients (an ensemble of long classical
runs and a handful of long master-equation runs) are reduced block by block
as they are integrated, so their memory does not grow with the run length;
the classical ensemble's blocks hold classical.BLOCK_STEPS states (40 time
points of its 50 runs), so neither does it grow with the ensemble's width.
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


def _bounded(number: int, *terms, prefix: str = "") -> CheckResult:
    """Check ``number``'s result from its ``terms``, each (label, value,
    kind, bound): a "tol" holds when value <= bound, a "floor" when value >=
    bound.  The detail is ``prefix`` and then ``label value (kind bound)``
    per term, the bound as written (1e-5, where the g format gives 1e-05)."""
    passed = all(v <= x if kind == "tol" else v >= x for _, v, kind, x in terms)
    shown = [
        f"{label} {v:.2e} ({kind} {format(x, 'g').replace('e-0', 'e-')})"
        for label, v, kind, x in terms
    ]
    return _result(number, passed, prefix + ", ".join(shown))


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
        self.h = self.dip = self.final = self.k = 0.0
        self.lowest = np.inf

    def add(self, h, s):
        if self.h0 is None:
            self.h0, self.s_last = h[:1], s[:1]
        # np.maximum propagates NaN as np.max does, at a fraction of the
        # cost of np.max over a list
        self.h = float(np.maximum(self.h, np.abs(h - self.h0).max()))
        # S's one-step decreases: across the boundary from the last block,
        # then within this one (a - b is -(b - a) exactly)
        inner = (s[:-1] - s[1:]).max(initial=-np.inf)
        self.dip = float(np.maximum(np.maximum(self.dip, (self.s_last - s[:1]).max()), inner))
        self.s_last = s[-1:]


def _classical_ensemble(rng):
    """Runs to t = 50 (dt = 1e-3) from :func:`_classical_starts`, integrated
    as one stack."""
    starts = _classical_starts(rng)
    return _reduce_classical(starts, classical.integrate_blocks(starts, 50.0, 1e-3))


def _reduce_classical(starts, blocks) -> _Reduction:
    """(m, 3, n) state blocks of runs from ``starts`` reduced as in
    :meth:`_Reduction.add`, plus the endpoint deviation from (|l|, 0, 0) and
    the drift of k from each run's first defined k."""
    run = _Reduction()
    k0 = np.full(len(starts), np.nan)
    pending = True  # some run has no defined k yet
    for block in blocks:
        h, s, k = classical.tracked_scalars(block[:, 0], block[:, 1], block[:, 2])
        run.add(h, s)
        if pending:
            # each run's first defined k in this block, NaN where it has none
            first = k[np.argmax(~np.isnan(k), axis=0), np.arange(len(starts))]
            k0 = np.where(np.isnan(k0), first, k0)
            pending = np.isnan(k0).any()
        k -= k0
        # fmax skips NaN on purpose: k is NaN wherever it is undefined
        run.k = float(np.fmax.reduce(np.abs(k, out=k), axis=None, initial=run.k))
    lx, ly, lz = block[-1]
    radius = np.array([np.linalg.norm(start) for start in starts])
    run.final = float(np.max([np.abs(lx - radius), np.abs(ly), np.abs(lz)]))
    return run


def _quantum_starts():
    """The maximally mixed state, the four basis projectors and the pure
    state (|00> + i|01>)/sqrt(2).  The last one's coherence
    c0 = <psi1|rho|psi2> = (1 - i)/(4 sqrt(2)) is complex, so its run ends
    on a member whose c differs from its conjugate."""
    labels = ("mixed", "basis:00", "basis:01", "basis:10", "basis:11")
    v = np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2.0)
    return [*(quantum.labelled_state(label) for label in labels), np.outer(v, v.conj())]


def _quantum_ensemble():
    """Master-equation runs to t = 20 (dt = 1e-3) from each of
    :func:`_quantum_starts`."""
    return [_reduce_quantum(quantum.evolve_blocks(rho, 20.0, 1e-3)) for rho in _quantum_starts()]


def _reduce_quantum(blocks) -> _Reduction:
    """(states, lowest eigenvalues) blocks of one run reduced as in
    :meth:`_Reduction.add` with H = <l^2>/2 and S = 2<lx>, plus the last
    state and the lowest eigenvalue."""
    run = _Reduction()
    for states, lowest in blocks:
        h = 0.5 * np.einsum("tij,ji->t", states, quantum.OPERATORS.l_squared).real
        run.add(h, 2.0 * np.einsum("tij,ji->t", states, quantum.OPERATORS.lx).real)
        run.lowest = float(np.min([run.lowest, lowest.min()]))
    run.last_state = states[-1].copy()
    return run


# ---------------------------------------------------------------------------
# the thirteen checks


def _check_jump_matrix():
    """1: the built jump operator equals its closed-form entries exactly."""
    ops = quantum.OPERATORS
    expected = 0.5 * np.array(
        [[2, -1, -1, 0], [1, 0, 0, -1], [1, 0, 0, -1], [0, 1, 1, -2]], dtype=complex
    )
    built = np.array_equal(ops.jump, expected)
    composed = np.array_equal(ops.jump, ops.lz - 1j * ops.ly)
    return _result(1, built and composed, "entrywise exact" if built and composed else "entries differ")


def _check_kernel(number, matrix, span, tol):
    """2 and 12: ``matrix``'s kernel is exactly the span of ``span``; for 2
    the jump operator's kernel is the two dark states, for 12 the 16x16
    generator's kernel is their vectorized outer products."""
    kern = null_space(matrix)
    if len(kern) != len(span):
        return _result(number, False, f"kernel dimension {len(kern)}, expected {len(span)}")
    angle = float(principal_angles(kern, span).max())
    term = ("worst principal angle", angle, "tol", tol)
    return _bounded(number, term, prefix=f"kernel dim {len(span)}, ")


def _check_stationary_spectrum(rng):
    """3: stationary states have two zero eigenvalues and two roots of
    x^2 - x + (a b - |c|^2), for 100 random parameter sets."""
    draws = [quantum.random_stationary_coefficients(rng, real_c=(i % 2 == 0)) for i in range(100)]
    params = quantum.StationaryParams(*zip(*draws))
    w = np.linalg.eigvalsh(quantum.stationary_state(params))
    c2 = np.float_power(np.hypot(params.c.real, params.c.imag), 2)  # abs(c) ** 2 bit for bit
    disc = np.maximum(1.0 - 4.0 * (params.a * params.b - c2), 0.0)
    roots = np.stack([0.5 * (1.0 - np.sqrt(disc)), 0.5 * (1.0 + np.sqrt(disc))], axis=-1)
    worst = float(np.max([np.abs(w[:, :2]).max(), np.abs(w[:, 2:] - roots).max()]))
    return _bounded(3, ("worst spectral deviation", worst, "tol", 1e-10))


def _check_pt_eigenvector(rng):
    """4: (1, 0, 0, -1)/sqrt(2) is an eigenvector of the transposed state
    with eigenvalue b/2, for 100 random real-c parameter sets."""
    v = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
    draws = [quantum.random_stationary_coefficients(rng) for _ in range(100)]
    params = quantum.StationaryParams(*zip(*draws))
    pt = entanglement.partial_transpose(quantum.stationary_state(params))
    worst = float(np.abs(pt @ v - 0.5 * params.b[:, None] * v).max())
    return _bounded(4, ("worst eigenvector residual", worst, "tol", 1e-12))


def _check_closed_form_spectrum(rng):
    """5: closed-form and numerical transposed spectra agree, 200 samples."""
    draws = [quantum.random_stationary_coefficients(rng) for _ in range(200)]
    params = quantum.StationaryParams(*zip(*draws))
    numeric = np.linalg.eigvalsh(entanglement.partial_transpose(quantum.stationary_state(params)))
    closed = np.concatenate([entanglement.cubic_roots(params), 0.5 * params.b[:, None]], axis=-1)
    worst = float(np.abs(numeric - np.sort(closed, axis=-1)).max())
    return _bounded(5, ("worst spectrum gap", worst, "tol", entanglement.CLOSED_FORM_AGREEMENT))


def _check_entanglement_verdicts(rng):
    """6: every stationary state with b > 0 is entangled; b = 0 is the one
    separable point, with spectrum {1, 0, 0, 0}."""
    b = np.linspace(0.02, 1.0, 50)
    line = entanglement.ppt_analyze(quantum.StationaryParams(1.0 - b, b, 0.0))
    draws = [quantum.random_stationary_coefficients(rng, max_a=1.0 - 1e-3) for _ in range(200)]
    params = quantum.StationaryParams(*zip(*draws))
    spread = entanglement.ppt_analyze(params)
    entangled_below = -1e-12  # a lowest transposed eigenvalue below this counts as entangled
    failures = [f"b = {x:g} not entangled" for x in b[~(line.min_eigenvalue < entangled_below)]]
    missed = ~(spread.min_eigenvalue < entangled_below)
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
    worst = float(np.max([neg_err, root_err]))
    return _bounded(7, ("negativity and double root within", worst, "tol", 1e-10))


def _check_classical_convergence(runs):
    """8: 50 random classical states reach (|l|, 0, 0) by t = 50 while
    conserving |l|^2 and the ratio k."""
    l2 = 2.0 * runs.h  # |l|^2 = 2 H, and doubling is exact
    return _bounded(
        8,
        ("worst endpoint deviation", runs.final, "tol", 1e-5),
        ("|l^2| drift", l2, "tol", 1e-8),
        ("k drift", runs.k, "tol", 1e-6),
    )


def _check_monotone_invariants(classical_runs, quantum_runs):
    """9: H stays constant and S never decreases, classically and quantumly."""
    runs = (classical_runs, *quantum_runs)
    worst_h = float(np.max([run.h for run in runs]))
    worst_dip = float(np.max([run.dip for run in runs]))
    return _bounded(
        9, ("worst H drift", worst_h, "tol", 1e-8), ("worst S decrease", worst_dip, "tol", 1e-10)
    )


def _check_field_equivalence(rng):
    """10: direct, coupling-function and quasithermodynamic forms of the
    classical field agree at 100 random points."""
    gaps = []
    for _ in range(100):
        point = rng.uniform(-2.0, 2.0, size=3)
        direct = classical.classical_field(point)
        gaps.append(np.abs(direct - classical.dissipative_field(point)).max())
        gaps.append(np.abs(direct - classical.quasithermo_field(point)).max())
    return _bounded(10, ("worst field mismatch", float(np.max(gaps)), "tol", 1e-12))


def _check_ehrenfest_identity(rng):
    """11: d<lx>/dt computed as 2 Re tr(rho J+J) matches tr(lx d rho/dt)
    for 100 random density matrices."""
    gaps = []
    for _ in range(100):
        rho = quantum.random_density_matrix(rng)
        via_rhs = float(np.trace(quantum.OPERATORS.lx @ quantum.lindblad_rhs(rho)).real)
        gaps.append(abs(quantum.ehrenfest_lx(rho) - via_rhs))
    return _bounded(11, ("worst identity gap", float(np.max(gaps)), "tol", 1e-12))


def _check_quantum_convergence(runs):
    """13: long master-equation runs land on the stationary family and stay
    positive the whole way."""
    # project_to_stationary refuses a state that is not finite; it fails here
    residuals = [
        quantum.project_to_stationary(r.last_state).residual if np.isfinite(r.last_state).all() else np.nan
        for r in runs
    ]
    worst_residual = float(np.max(residuals))
    worst_eig = float(np.min([r.lowest for r in runs]))
    return _bounded(
        13,
        ("worst endpoint residual", worst_residual, "tol", 1e-8),
        ("lowest eigenvalue along runs", worst_eig, "floor", -1e-8),
    )


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the thirteen checks in order and return their results."""
    rng = np.random.default_rng(seed)
    classical_runs = _classical_ensemble(rng)
    quantum_runs = _quantum_ensemble()
    dark = (quantum.KERNEL_BASIS.psi1, quantum.KERNEL_BASIS.psi2)
    dark_products = [quantum.vec(np.outer(u, v.conj())) for u in dark for v in dark]
    return [
        _check_jump_matrix(),
        _check_kernel(2, quantum.OPERATORS.jump, dark, 1e-10),
        _check_stationary_spectrum(rng),
        _check_pt_eigenvector(rng),
        _check_closed_form_spectrum(rng),
        _check_entanglement_verdicts(rng),
        _check_singlet_corner(),
        _check_classical_convergence(classical_runs),
        _check_monotone_invariants(classical_runs, quantum_runs),
        _check_field_equivalence(rng),
        _check_ehrenfest_identity(rng),
        _check_kernel(12, quantum.liouvillian_matrix(), dark_products, 1e-8),
        _check_quantum_convergence(quantum_runs),
    ]
