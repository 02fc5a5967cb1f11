"""Two-qubit collective operators and their dissipative master equation.

The basis is the product basis |00>, |01>, |10>, |11> with sigma_z |0> = +|0>,
which makes lz = diag(1, 0, 0, -1).  Relaxation is driven by the single jump
operator J = lz - i ly with no Hamiltonian part:

    d rho / dt = 2 J rho J+ - J+J rho - rho J+J

J annihilates exactly two orthonormal vectors, the fully symmetric in-phase
state (1, 1, 1, 1)/2 and the singlet (0, 1, -1, 0)/sqrt(2), and every
stationary density matrix is a combination of their outer products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import BLOCK_STEPS, step_count
from .linalg import tensor_product

#: slack used when validating stationary-family coefficients
PARAM_TOL = 1e-12

#: evolve() raises once a recorded eigenvalue drops below this
POSITIVITY_ERROR = -1e-6


class InvalidParams(ValueError):
    """Stationary-family coefficients are not finite or violate normalization
    or positivity."""


class PositivityLost(RuntimeError):
    """Integration produced a state that is no longer positive (or finite)."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


SIGMA_X = _readonly(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SIGMA_Y = _readonly(np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex))
SIGMA_Z = _readonly(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


@dataclass(frozen=True)
class OperatorSet:
    """Collective two-qubit operators in the fixed product basis.

    All arrays are read-only; ``jump`` is lz - i ly and ``jump_dagger`` its
    adjoint.  Entries are exact binary fractions, so closed-form matrices
    can be compared entrywise without tolerance.
    """

    lx: np.ndarray
    ly: np.ndarray
    lz: np.ndarray
    l_squared: np.ndarray
    jump: np.ndarray
    jump_dagger: np.ndarray


@dataclass(frozen=True)
class QuantumTrajectory:
    """Fixed-step run of the master equation, one entry per step from t = 0.

    ``times`` is (T,), ``states`` the (T, d, d) stack of density matrices
    and ``min_eigenvalues`` (T,) the lowest eigenvalue of each state, which
    :func:`evolve` computes for its positivity check.  All three are
    read-only.
    """

    times: np.ndarray
    states: np.ndarray
    min_eigenvalues: np.ndarray


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal pair spanning the jump operator's kernel.

    ``psi1`` is the in-phase state (1, 1, 1, 1)/2 and ``psi2`` the singlet
    (0, 1, -1, 0)/sqrt(2).
    """

    psi1: np.ndarray
    psi2: np.ndarray


def build_operators() -> OperatorSet:
    """Construct lx, ly, lz, l^2 and the jump operator lz - i ly."""
    eye = np.eye(2, dtype=complex)

    def collective(s: np.ndarray) -> np.ndarray:
        return 0.5 * (tensor_product(s, eye) + tensor_product(eye, s))

    lx = collective(SIGMA_X)
    ly = collective(SIGMA_Y)
    lz = collective(SIGMA_Z)
    l_squared = 0.5 * (
        3.0 * np.eye(4, dtype=complex)
        + tensor_product(SIGMA_X, SIGMA_X)
        + tensor_product(SIGMA_Y, SIGMA_Y)
        + tensor_product(SIGMA_Z, SIGMA_Z)
    )
    jump = lz - 1.0j * ly
    jump_dagger = jump.conj().T.copy()
    return OperatorSet(*(_readonly(m) for m in (lx, ly, lz, l_squared, jump, jump_dagger)))


def kernel_basis() -> KernelBasis:
    """The two dark states of the jump operator, as read-only vectors."""
    psi1 = _readonly(np.full(4, 0.5, dtype=complex))
    psi2 = _readonly(np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0))
    return KernelBasis(psi1=psi1, psi2=psi2)


def labelled_state(label: str) -> np.ndarray:
    """Density matrix named by ``mixed`` (I/4) or ``basis:IJ`` (|IJ><IJ|,
    I, J in {0, 1}); ValueError for any other label."""
    if label == "mixed":
        return np.eye(4, dtype=complex) / 4.0
    bits = label.removeprefix("basis:")
    if bits == label:
        raise ValueError(f"unknown state label {label!r}, expected 'mixed' or 'basis:IJ'")
    if len(bits) != 2 or not set(bits) <= {"0", "1"}:
        raise ValueError(f"bad basis label {bits!r}, expected two bits")
    rho = np.zeros((4, 4), dtype=complex)
    rho[int(bits, 2), int(bits, 2)] = 1.0
    return rho


def check_density_matrix(
    rho,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-10,
    eig_floor: float = -1e-9,
) -> np.ndarray:
    """Validate a density matrix and return it as a fresh complex array.

    Checks that it is a nonempty square matrix of finite entries, then
    Hermiticity, unit trace and positivity (eigenvalues no lower than
    ``eig_floor``); raises ValueError on any violation.
    """
    r = np.array(rho, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {r.shape}")
    if r.size == 0:
        raise ValueError("density matrix is empty")
    if not np.isfinite(r).all():
        raise ValueError("density matrix entries must be finite")
    herm = float(np.abs(r - r.conj().T).max())
    if herm > herm_tol:
        raise ValueError(f"not Hermitian: deviation {herm:.3e}")
    tr = complex(np.trace(r))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace must be 1, got {tr}")
    lowest = float(np.linalg.eigvalsh(r)[0])
    if lowest < eig_floor:
        raise ValueError(f"not positive: lowest eigenvalue {lowest:.3e}")
    return r


def random_density_matrix(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Random full-rank density matrix A A+ / tr(A A+), A complex Gaussian."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def lindblad_rhs(rho, ops: OperatorSet) -> np.ndarray:
    """Time derivative 2 J rho J+ - {J+J, rho} of the density matrix.

    Kept as the direct form of the master equation, independent of
    :func:`liouvillian_matrix` and the propagator :func:`evolve` builds.
    """
    r = np.asarray(rho, dtype=complex)
    j = ops.jump
    jd = ops.jump_dagger
    absorb = jd @ j
    return 2.0 * (j @ r @ jd) - absorb @ r - r @ absorb


def _rk4_propagator(ops: OperatorSet, dt: float) -> np.ndarray:
    """One RK4 step of the master equation as a 16x16 matrix.

    The equation is linear and autonomous, so a classical RK4 step is the
    degree-4 Taylor polynomial of exp(dt L), the method's stability function.
    Rows and columns follow the row-major (C-order) flattening of rho, so
    that ``P @ rho.ravel()`` is the flattened next state.
    """
    hl = dt * liouvillian_matrix(ops)
    eye = np.eye(hl.shape[0], dtype=complex)
    taylor = eye + hl @ (eye + hl @ (eye + hl @ (eye + hl / 4.0) / 3.0) / 2.0)
    dim = ops.jump.shape[0]
    # column-stacked index i + dim*j  ->  row-major index dim*i + j
    return taylor.reshape(dim, dim, dim, dim).transpose(1, 0, 3, 2).reshape(dim * dim, dim * dim)


def _checked(rho0, ops: OperatorSet, t_final: float, dt: float) -> tuple[np.ndarray, int]:
    """The validated initial state and the step count."""
    rho = check_density_matrix(rho0)
    if rho.shape != ops.jump.shape:
        raise ValueError(f"state has shape {rho.shape}, the operators need {ops.jump.shape}")
    return rho, step_count(t_final, dt)


def evolve(rho0, ops: OperatorSet, t_final: float, dt: float) -> QuantumTrajectory:
    """Fixed-step RK4 trajectory of the master equation.

    Returns a :class:`QuantumTrajectory` with one time, state and lowest
    eigenvalue per step, t = 0 included, collected from the blocks of
    :func:`evolve_blocks`; its errors are the same.
    """
    rho, n_steps = _checked(rho0, ops, t_final, dt)
    dim = rho.shape[0]
    states = np.empty((n_steps + 1, dim, dim), dtype=complex)
    lowest = np.empty(n_steps + 1)
    blocks = evolve_blocks(rho, ops, t_final, dt)
    for row, (block, block_lowest) in zip(range(0, n_steps + 1, BLOCK_STEPS), blocks):
        states[row : row + len(block)] = block
        lowest[row : row + len(block)] = block_lowest
    return QuantumTrajectory(*(_readonly(a) for a in (np.arange(n_steps + 1) * dt, states, lowest)))


def evolve_blocks(rho0, ops: OperatorSet, t_final: float, dt: float):
    """Fixed-step RK4 run of the master equation, yielded as (states, lowest
    eigenvalues) blocks from t = 0.  A block holds BLOCK_STEPS states but
    the last, in a view of one reused buffer valid until the next block is
    requested.  Each step applies the precomputed RK4 propagator
    (:func:`_rk4_propagator`) to the flattened state, which keeps it
    Hermitian and of unit trace up to roundoff.  Each block is checked
    before it is yielded: PositivityLost names the first time in it that a
    state stopped being finite or, all being finite, that an eigenvalue
    fell below -1e-6 (the symptom of a dt too large for the stiffest decay
    mode).  ValueError, once iteration begins, for an invalid ``rho0``
    (:func:`check_density_matrix`) or steps (:func:`classical.step_count`).
    """
    rho, n_steps = _checked(rho0, ops, t_final, dt)
    step = _rk4_propagator(ops, dt).dot
    dim = rho.shape[0]
    total = n_steps + 1
    buf = np.empty((min(BLOCK_STEPS, total), dim, dim), dtype=complex)
    flat = buf.reshape(len(buf), dim * dim)
    flat[0] = rho.ravel()
    prev = flat[0]
    for offset in range(0, total, len(buf)):
        rows = flat[: total - offset]
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            for cur in rows[1:] if offset == 0 else rows:
                step(prev, out=cur)
                prev = cur
        finite = np.isfinite(rows.view(float)).all(axis=1)
        if not finite.all():
            raise PositivityLost(f"state diverged at t = {(offset + np.argmin(finite)) * dt:g}")
        states = buf[: len(rows)]
        lowest = np.linalg.eigvalsh(states)[:, 0]
        bad = np.nonzero(lowest < POSITIVITY_ERROR)[0]
        if bad.size:
            raise PositivityLost(
                f"eigenvalue {lowest[bad[0]]:.3e} at t = {(offset + bad[0]) * dt:g}; reduce dt"
            )
        yield states, lowest


def ehrenfest_lx(rho, ops: OperatorSet) -> float:
    """Growth rate of <lx>, namely 2 Re tr(rho J+J).

    Identical to tr(lx * lindblad_rhs(rho)) and nonnegative on states,
    because J+J is positive semidefinite.
    """
    r = np.asarray(rho, dtype=complex)
    return float(2.0 * np.trace(r @ (ops.jump_dagger @ ops.jump)).real)


@dataclass(frozen=True)
class StationaryParams:
    """Coefficients (a, b, c) of a stationary density matrix.

    Validated on construction: all three finite, a + b = 1, both
    nonnegative, and a b >= |c|^2 (all within 1e-12), the exact conditions
    for unit trace and positivity.  ``c`` may be complex.  A violation
    raises InvalidParams.
    """

    a: float
    b: float
    c: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", complex(self.c))
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not np.isfinite(value):
                raise InvalidParams(f"{name} must be finite, got {value!r}")
        if abs(self.a + self.b - 1.0) > PARAM_TOL:
            raise InvalidParams(f"a + b must equal 1, got {self.a + self.b!r}")
        if self.a < -PARAM_TOL or self.b < -PARAM_TOL:
            raise InvalidParams(f"a and b must be nonnegative, got {self.a!r}, {self.b!r}")
        if self.a * self.b + PARAM_TOL < abs(self.c) ** 2:
            raise InvalidParams(
                f"positivity needs a*b >= |c|^2, got a*b = {self.a * self.b!r}, "
                f"|c|^2 = {abs(self.c) ** 2!r}"
            )


def random_stationary_params(
    rng: np.random.Generator, real_c: bool = True, max_a: float = 1.0
) -> StationaryParams:
    """Uniform-ish sample from the valid parameter set.

    ``max_a`` < 1 keeps b = 1 - a bounded away from zero, which is handy
    when exercising claims that need a strictly positive singlet weight.
    """
    a = float(rng.uniform(0.0, max_a))
    b = 1.0 - a
    cap = math.sqrt(max(a * b, 0.0))
    if real_c:
        c = complex(rng.uniform(-cap, cap))
    else:
        c = cap * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
    return StationaryParams(a, b, c)


def _kernel_combination(a: float, b: float, c: complex, basis: KernelBasis) -> np.ndarray:
    p1 = np.outer(basis.psi1, basis.psi1.conj())
    p2 = np.outer(basis.psi2, basis.psi2.conj())
    cross = np.outer(basis.psi1, basis.psi2.conj())
    return a * p1 + b * p2 + c * cross + np.conj(c) * cross.conj().T


def stationary_state(params: StationaryParams, basis: KernelBasis | None = None) -> np.ndarray:
    """Density matrix a P1 + b P2 + (c |psi1><psi2| + h.c.) in the kernel."""
    if basis is None:
        basis = kernel_basis()
    return _kernel_combination(params.a, params.b, params.c, basis)


@dataclass(frozen=True)
class StationaryFit:
    """Kernel overlaps of a state and its distance to the stationary family.

    ``a``, ``b``, ``c`` are raw matrix elements in the kernel pair (they sum
    to at most 1 and are not renormalized); ``residual`` is the largest
    entry of rho minus the family member with weights rescaled to a + b = 1.
    """

    a: float
    b: float
    c: complex
    residual: float


def project_to_stationary(rho, basis: KernelBasis | None = None) -> StationaryFit:
    """Overlap coefficients of ``rho`` with the stationary family.

    The overlaps alone do not determine where the evolution actually ends
    up (they are not conserved), so the fit is an empirical report about
    ``rho`` itself, typically the last state of a long run.
    """
    if basis is None:
        basis = kernel_basis()
    r = np.asarray(rho, dtype=complex)
    a = float((basis.psi1.conj() @ r @ basis.psi1).real)
    b = float((basis.psi2.conj() @ r @ basis.psi2).real)
    c = complex(basis.psi1.conj() @ r @ basis.psi2)
    total = a + b
    if total <= 0.0:
        return StationaryFit(a=a, b=b, c=c, residual=float(np.abs(r).max()))
    fitted = _kernel_combination(a / total, b / total, c / total, basis)
    return StationaryFit(a=a, b=b, c=c, residual=float(np.abs(r - fitted).max()))


def vec(mat) -> np.ndarray:
    """Column-stacking vectorization, the convention with
    vec(A X B) = kron(B.T, A) vec(X)."""
    return np.asarray(mat, dtype=complex).reshape(-1, order="F")


def liouvillian_matrix(ops: OperatorSet) -> np.ndarray:
    """Dense 16x16 superoperator L with L vec(rho) = vec(lindblad_rhs(rho)).

    Column stacking throughout: the sandwich term becomes
    kron(conj(J), J) and the one-sided products kron(I, J+J) and
    kron((J+J).T, I).
    """
    j = ops.jump
    absorb = ops.jump_dagger @ j
    eye = np.eye(j.shape[0], dtype=complex)
    return (
        2.0 * np.kron(j.conj(), j)
        - np.kron(eye, absorb)
        - np.kron(absorb.T, eye)
    )


def density_matrix_to_json(rho) -> dict:
    """JSON-ready mapping with ``dim`` and row-major ``re`` / ``im`` lists."""
    r = np.asarray(rho, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {r.shape}")
    return {
        "dim": int(r.shape[0]),
        "re": r.real.ravel().tolist(),
        "im": r.imag.ravel().tolist(),
    }


def density_matrix_from_json(obj) -> np.ndarray:
    """Rebuild a complex matrix from :func:`density_matrix_to_json` output."""
    try:
        dim = int(obj["dim"])
        rho = np.asarray(obj["re"], dtype=float).reshape(dim, dim).astype(complex)
        rho.imag = np.asarray(obj["im"], dtype=float).reshape(dim, dim)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"not a serialized density matrix: {exc}") from exc
    return rho
