"""Two-qubit collective operators and their dissipative master equation.

The basis is the product basis |00>, |01>, |10>, |11> with sigma_z |0> = +|0>,
which makes lz = diag(1, 0, 0, -1).  Relaxation is driven by the single jump
operator J = lz - i ly with no Hamiltonian part:

    d rho / dt = 2 J rho J+ - J+J rho - rho J+J

J annihilates exactly two orthonormal vectors, the fully symmetric in-phase
state (1, 1, 1, 1)/2 and the singlet (0, 1, -1, 0)/sqrt(2), and every
stationary density matrix is a combination of their outer products.  The
model has one operator set, :data:`OPERATORS`.

A two-qubit state argument is cast once, by :func:`_as_state`, whose errors
name it; :func:`check_density_matrix` states what else a density matrix is.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .classical import BLOCK_STEPS, step_count
from .linalg import NotFinite, _as_numbers, _as_square, _require_hermitian

#: slack used when validating stationary-family coefficients
PARAM_TOL = 1e-12

#: evolve_blocks() raises once a recorded eigenvalue drops below this
POSITIVITY_ERROR = -1e-6


class InvalidParams(ValueError):
    """Stationary-family coefficients are not finite or violate normalization
    or positivity."""


class PositivityLost(RuntimeError):
    """Integration produced a state that is no longer positive (or finite).
    ``what`` is the message without its ``advice``, for a caller that chose
    no dt."""

    def __init__(self, what: str, advice: str = ""):
        super().__init__(f"{what}; {advice}" if advice else what)
        self.what = what


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
class KernelBasis:
    """Orthonormal pair spanning the jump operator's kernel.

    ``psi1`` is the in-phase state (1, 1, 1, 1)/2 and ``psi2`` the singlet
    (0, 1, -1, 0)/sqrt(2).
    """

    psi1: np.ndarray
    psi2: np.ndarray


def _build_operators() -> OperatorSet:
    """Construct lx, ly, lz, l^2 and the jump operator lz - i ly."""
    eye = np.eye(2, dtype=complex)

    def collective(s: np.ndarray) -> np.ndarray:
        return 0.5 * (np.kron(s, eye) + np.kron(eye, s))

    lx = collective(SIGMA_X)
    ly = collective(SIGMA_Y)
    lz = collective(SIGMA_Z)
    l_squared = 0.5 * (
        3.0 * np.eye(4, dtype=complex)
        + np.kron(SIGMA_X, SIGMA_X)
        + np.kron(SIGMA_Y, SIGMA_Y)
        + np.kron(SIGMA_Z, SIGMA_Z)
    )
    jump = lz - 1.0j * ly
    jump_dagger = jump.conj().T.copy()
    return OperatorSet(*(_readonly(m) for m in (lx, ly, lz, l_squared, jump, jump_dagger)))


#: the model's one operator set, read by every master-equation function
OPERATORS = _build_operators()


def build_operators() -> OperatorSet:
    """lx, ly, lz, l^2 and the jump operator lz - i ly, :data:`OPERATORS`."""
    return OPERATORS


#: the two dark states of the jump operator, as read-only vectors
KERNEL_BASIS = KernelBasis(
    psi1=_readonly(np.full(4, 0.5, dtype=complex)),
    psi2=_readonly(np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)),
)


def kernel_basis() -> KernelBasis:
    """The two dark states of the jump operator, :data:`KERNEL_BASIS`."""
    return KERNEL_BASIS


def labelled_state(label: str) -> np.ndarray:
    """Density matrix named by ``mixed`` (I/4) or ``basis:IJ`` (|IJ><IJ|,
    I, J in {0, 1}); ValueError for any other label, TypeError for
    anything but a string."""
    if not isinstance(label, str):
        raise TypeError(f"label must be a string, got {reprlib.repr(label)}")
    if label == "mixed":
        return np.eye(4, dtype=complex) / 4.0
    bits = label.removeprefix("basis:")
    if bits == label:
        raise ValueError(
            f"unknown state label {reprlib.repr(label)}, expected 'mixed' or 'basis:IJ'"
        )
    if len(bits) != 2 or not set(bits) <= {"0", "1"}:
        raise ValueError(f"bad basis label {reprlib.repr(bits)}, expected two bits")
    rho = np.zeros((4, 4), dtype=complex)
    rho[int(bits, 2), int(bits, 2)] = 1.0
    return rho


def check_density_matrix(rho) -> np.ndarray:
    """Validate a density matrix and return it as a fresh complex array.

    ``rho`` must be a finite square matrix that is Hermitian within
    HERMITIAN_TOL, by the rules of :mod:`linalg`, whose errors name it; the
    rules of its own are unit trace (within 1e-10) and positivity (no
    eigenvalue below -1e-9), each a ValueError that names it too."""
    return _density_matrix(rho, "rho")


def _density_matrix(value, name: str) -> np.ndarray:
    """:func:`check_density_matrix` for an argument called ``name``."""
    r = np.array(_as_square(value, name))
    _require_hermitian(r, name)
    with np.errstate(over="ignore"):  # huge entries read as an infinite trace
        tr = complex(np.trace(r))
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"{name} must have trace 1, got {tr}")
    lowest = float(np.linalg.eigvalsh(r)[0])
    if lowest < -1e-9:
        raise ValueError(f"{name} is not positive: lowest eigenvalue {lowest:.3e}")
    return r


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Random full-rank two-qubit density matrix A A+ / tr(A A+), A a 4x4
    complex Gaussian."""
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _as_state(value, name: str) -> np.ndarray:
    """``value`` as a finite complex 4x4 matrix, a two-qubit state: errors as
    for :func:`linalg._as_square`, or ValueError naming ``name`` for another size."""
    r = _as_square(value, name)
    if r.shape != (4, 4):
        raise ValueError(f"{name} must be a 4x4 matrix, got shape {r.shape}")
    return r


def lindblad_rhs(rho) -> np.ndarray:
    """Time derivative 2 J rho J+ - {J+J, rho} of the 4x4 density matrix.

    Kept as the direct form of the master equation, independent of
    :func:`liouvillian_matrix` and the propagator :func:`evolve_blocks` builds.
    ValueError unless rho is a finite 4x4 matrix.
    """
    r = _as_state(rho, "rho")
    j, jd = OPERATORS.jump, OPERATORS.jump_dagger
    absorb = jd @ j
    return 2.0 * (j @ r @ jd) - absorb @ r - r @ absorb


def _rk4_propagator(dt: float) -> np.ndarray:
    """One RK4 step of the master equation as a 16x16 matrix.

    The equation is linear and autonomous, so a classical RK4 step is the
    degree-4 Taylor polynomial of exp(dt L), the method's stability function.
    Rows and columns follow the row-major (C-order) flattening of rho, so
    that ``P @ rho.ravel()`` is the flattened next state.
    """
    hl = dt * liouvillian_matrix()
    eye = np.eye(hl.shape[0], dtype=complex)
    taylor = eye + hl @ (eye + hl @ (eye + hl @ (eye + hl / 4.0) / 3.0) / 2.0)
    dim = OPERATORS.jump.shape[0]
    # column-stacked index i + dim*j  ->  row-major index dim*i + j
    return taylor.reshape(dim, dim, dim, dim).transpose(1, 0, 3, 2).reshape(dim * dim, dim * dim)


def evolve(rho0, ops: OperatorSet, t_final: float, dt: float) -> np.ndarray:
    """Fixed-step RK4 run of the master equation: the states of the blocks
    of :func:`evolve_blocks` joined into one (T, d, d) array, one state per
    step from t = 0 on, dt apart.  ``ops`` must be :data:`OPERATORS`, the
    set :func:`build_operators` returns; any other raises ValueError.
    Errors as for :func:`evolve_blocks`, whose blocks also carry each
    state's lowest eigenvalue.
    """
    if ops is not OPERATORS:
        raise ValueError("evolve takes only the model's operators, build_operators()")
    return np.concatenate([states.copy() for states, _ in evolve_blocks(rho0, t_final, dt)])


def evolve_blocks(rho0, t_final: float, dt: float):
    """Fixed-step RK4 run of the master equation, yielded as (states, lowest
    eigenvalues) blocks from t = 0.  A block holds BLOCK_STEPS states but
    the last, in a view of one reused buffer; a block is valid until the
    next block is requested, and the last one stays valid once the run has
    ended.  Each step applies the precomputed RK4 propagator
    (:func:`_rk4_propagator`) to the flattened state, which keeps it
    Hermitian and of unit trace up to roundoff.  Each block is checked
    before it is yielded: PositivityLost names the first time in it that
    an eigenvalue fell below -1e-6 (the symptom of a dt too large for the
    stiffest decay mode) or that a state stopped being finite, whichever
    comes first.  ValueError, once iteration begins, for a ``rho0`` that is
    no finite 4x4 matrix (:func:`_as_state`) or no density matrix
    (:func:`check_density_matrix`), each naming ``rho0``, or for steps
    (:func:`classical.step_count`).
    """
    rho = _density_matrix(_as_state(rho0, "rho0"), "rho0")
    total = step_count(t_final, dt) + 1
    step = _rk4_propagator(dt).dot
    dim = rho.shape[0]
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
        n_finite = len(rows) if finite.all() else int(np.argmin(finite))
        lowest = np.linalg.eigvalsh(buf[:n_finite])[:, 0]
        bad = np.nonzero(lowest < POSITIVITY_ERROR)[0]
        if bad.size:
            raise PositivityLost(
                f"eigenvalue {lowest[bad[0]]:.3e} at t = {(offset + bad[0]) * dt:g}", "reduce dt"
            )
        if n_finite < len(rows):
            raise PositivityLost(f"state diverged at t = {(offset + n_finite) * dt:g}")
        yield buf[: len(rows)], lowest


def ehrenfest_lx(rho) -> float:
    """Growth rate of <lx>, namely 2 Re tr(rho J+J).

    Identical to tr(lx * lindblad_rhs(rho)) and nonnegative on states,
    because J+J is positive semidefinite; ValueError unless rho is a finite
    4x4 matrix.
    """
    r = _as_state(rho, "rho")
    return float(2.0 * np.trace(r @ (OPERATORS.jump_dagger @ OPERATORS.jump)).real)


def point_label(a: float, c: complex) -> str:
    """Names one point of a stack in an error message; a real c prints as a float."""
    return f"(a, c) = ({a!r}, {c.real if c.imag == 0.0 else c!r})"


def _check_params(a, b, c) -> None:
    """Raise InvalidParams unless every point (a, b, c) is a stationary
    state: all three finite, both nonnegative, a + b = 1 and a b >= |c|^2,
    all within PARAM_TOL.  Takes scalars or arrays of one shape; for arrays
    the message names the first failing point."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        values = {
            "a": a,
            "b": b,
            "c": c,
            "total": a + b,
            "ab": a * b,
            "c2": np.float_power(np.hypot(c.real, c.imag), 2),  # abs(c) ** 2 bit for bit
        }
        faults = (
            (~np.isfinite(a), "a must be finite, got {a!r}"),
            (~np.isfinite(b), "b must be finite, got {b!r}"),
            (~np.isfinite(c), "c must be finite, got {c!r}"),
            # before the sum: for a huge a, b = 1 - a makes a + b round to 0
            ((a < -PARAM_TOL) | (b < -PARAM_TOL), "a and b must be nonnegative, got {a!r}, {b!r}"),
            (np.abs(values["total"] - 1.0) > PARAM_TOL, "a + b must equal 1, got {total!r}"),
            (
                values["ab"] + PARAM_TOL < values["c2"],
                "positivity needs a*b >= |c|^2, got a*b = {ab!r}, |c|^2 = {c2!r}",
            ),
        )
    bad = np.logical_or.reduce([mask for mask, _ in faults])
    if not bad.any():
        return
    i = np.unravel_index(np.argmax(bad), bad.shape)
    at = {name: v[i].item() for name, v in values.items()}
    message = next(text for mask, text in faults if mask[i]).format(**at)
    if bad.ndim:
        message += " at " + point_label(at["a"], at["c"])
    raise InvalidParams(message)


@dataclass(frozen=True, eq=False)
class StationaryParams:
    """Coefficients (a, b, c) of one stationary density matrix, or of a
    stack of them.

    Validated on construction: all three finite, a + b = 1, both
    nonnegative, and a b >= |c|^2 (all within 1e-12), the exact conditions
    for unit trace and positivity.  ``c`` may be complex; a complex ``a``
    or ``b``, or anything but numbers (None, a string), raises TypeError,
    and a ragged nesting or shapes that do not broadcast ValueError.  A
    violation raises InvalidParams, naming the first failing point of a
    stack.

    Scalar arguments give one point: ``a`` and ``b`` are then floats and
    ``c`` a complex.  Array arguments give a stack: all three are broadcast
    to one shape and kept as read-only arrays (float, float, complex), and
    every function that takes a StationaryParams returns one result per
    point along those leading axes.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    c: complex | np.ndarray = 0.0

    def __post_init__(self):
        try:
            arrays = [
                _as_numbers(getattr(self, name), name, dtype)
                for name, dtype in (("a", float), ("b", float), ("c", complex))
            ]
        except NotFinite as exc:
            raise InvalidParams(str(exc)) from None
        try:
            arrays = np.broadcast_arrays(*arrays)
        except ValueError:  # numpy's "shape mismatch" names no argument
            shapes = ", ".join(str(x.shape) for x in arrays)
            raise ValueError(f"a, b and c must broadcast to one shape, got shapes {shapes}") from None
        for name, x in zip(("a", "b", "c"), arrays):
            object.__setattr__(self, name, x.item() if x.ndim == 0 else _readonly(x.copy()))
        _check_params(self.a, self.b, self.c)


def random_stationary_coefficients(
    rng: np.random.Generator, real_c: bool = True, max_a: float = 1.0
) -> tuple[float, float, complex]:
    """Uniform-ish draw (a, b, c) from the valid parameter set, unvalidated:
    :class:`StationaryParams` takes one draw, or many zipped into a stack.

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
    return a, b, c


def _kernel_combination(a, b, c) -> np.ndarray:
    """a P1 + b P2 + (c |psi1><psi2| + h.c.); arrays of one shape S give a
    stack of shape S + (4, 4)."""
    psi1, psi2 = KERNEL_BASIS.psi1, KERNEL_BASIS.psi2
    p1 = psi1[:, None] * psi1.conj()
    p2 = psi2[:, None] * psi2.conj()
    cross = psi1[:, None] * psi2.conj()
    a, b, c = (np.asarray(x)[..., None, None] for x in (a, b, c))
    return a * p1 + b * p2 + c * cross + np.conj(c) * cross.conj().T


def stationary_state(params: StationaryParams) -> np.ndarray:
    """Density matrix a P1 + b P2 + (c |psi1><psi2| + h.c.) in the kernel,
    or the (..., 4, 4) stack of them for a stack of points.  TypeError
    unless ``params`` is a :class:`StationaryParams`."""
    if not isinstance(params, StationaryParams):
        raise TypeError(f"params must be a StationaryParams, got {type(params).__name__}")
    return _kernel_combination(params.a, params.b, params.c)


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


def project_to_stationary(rho) -> StationaryFit:
    """Overlap coefficients of ``rho`` with the stationary family.

    The fit is a report about ``rho`` itself, typically the last state of
    a long run.  Of the overlaps, b and c are conserved by the master
    equation (J psi1 = J psi2 = J+ psi2 = 0) and only a changes, so a run
    from rho0 ends at ``stationary_state(StationaryParams(1 - b0, b0, c0))``.
    Raises ValueError unless ``rho`` is a finite 4x4 matrix.
    """
    psi1, psi2 = KERNEL_BASIS.psi1, KERNEL_BASIS.psi2
    r = _as_state(rho, "rho")
    a = float((psi1.conj() @ r @ psi1).real)
    b = float((psi2.conj() @ r @ psi2).real)
    c = complex(psi1.conj() @ r @ psi2)
    total = a + b  # with no weight in the kernel, the residual is rho's largest entry
    fitted = _kernel_combination(a / total, b / total, c / total) if total > 0.0 else 0.0
    return StationaryFit(a=a, b=b, c=c, residual=float(np.abs(r - fitted).max()))


def vec(mat) -> np.ndarray:
    """Column-stacking vectorization, the convention with
    vec(A X B) = kron(B.T, A) vec(X)."""
    return _as_numbers(mat, "mat", complex).reshape(-1, order="F")


def liouvillian_matrix() -> np.ndarray:
    """Dense 16x16 superoperator L with L vec(rho) = vec(lindblad_rhs(rho)).

    Column stacking throughout: the sandwich term becomes
    kron(conj(J), J) and the one-sided products kron(I, J+J) and
    kron((J+J).T, I).
    """
    j = OPERATORS.jump
    absorb = OPERATORS.jump_dagger @ j
    eye = np.eye(j.shape[0], dtype=complex)
    return 2.0 * np.kron(j.conj(), j) - np.kron(eye, absorb) - np.kron(absorb.T, eye)


def density_matrix_to_json(rho) -> dict:
    """JSON-ready mapping with ``dim`` and row-major ``re`` / ``im`` lists;
    the errors of :func:`linalg._as_square` unless ``rho`` is a finite,
    nonempty square matrix."""
    r = _as_square(rho, "rho")
    return {"dim": int(r.shape[0]), "re": r.real.ravel().tolist(), "im": r.imag.ravel().tolist()}


def density_matrix_from_json(obj) -> np.ndarray:
    """Rebuild a complex matrix from :func:`density_matrix_to_json` output;
    ValueError unless ``dim`` is a positive integer and ``re``, ``im`` hold dim^2 reals."""
    try:
        dim = obj["dim"]
        if type(dim) is not int or dim < 1:  # a JSON true is an int to isinstance
            raise ValueError(f"dim must be a positive integer, got {reprlib.repr(dim)}")
        rho = np.asarray(obj["re"], dtype=float).reshape(dim, dim).astype(complex)
        rho.imag = np.asarray(obj["im"], dtype=float).reshape(dim, dim)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"not a serialized density matrix: {exc}") from exc
    return rho
