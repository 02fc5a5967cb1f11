"""Separability analysis of the stationary family via partial transposition.

For two qubits, positivity of the partial transpose decides separability
completely, and the transposed state has at most one negative eigenvalue
(Sanpera, Tarrach & Vidal, PRA 58, 826, 1998), so the state is entangled
iff det(rho^T_B) < 0 (Augusiak, Demianowicz & Horodecki, PRA 77, 030301(R),
2008).  On the stationary family that determinant is exactly -b^4/16, for
complex c too, so a state is separable iff b = 0; the total weight of the
negative eigenvalues (the negativity) quantifies the entanglement.  The
transposed spectrum is also available in closed form for every c: one
eigenvalue is b/2 exactly, the other three are the roots of a cubic whose
coefficients are polynomial in (a, b, |c|^2), and for every b > 0 exactly
one of those roots is negative, and below -b^2/4.  tests/test_symbolic.py
derives these identities with sympy.

Every function here takes one point or a stack of points, both as a
StationaryParams, and runs a stack as whole arrays with one eigensolver
call, bit for bit equal to analysing its points one at a time;
:func:`sweep` analyses one value of a per stack.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

from .linalg import NotHermitian, _as_numbers, hermitian_eigensystem
from .quantum import PARAM_TOL, StationaryParams, point_label, stationary_state

#: closed-form and numerical spectra (and determinants) must agree this well,
#: or something is broken
CLOSED_FORM_AGREEMENT = 1e-9

#: most points per axis sweep() accepts; it analyses up to MAX_GRID**2 states
MAX_GRID = 1001


def partial_transpose(rho) -> np.ndarray:
    """Transpose the indices of qubit 2 of a 4x4 two-qubit matrix, or of
    each matrix of a stack (..., 4, 4).

    Entries are only moved, never recomputed, so transposing twice gives
    back the input exactly.  The result is always a new, writeable array,
    even for a broadcast input whose reshape alone would be a view.
    """
    r = _as_numbers(rho, "rho", complex)
    if r.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 matrices, got shape {r.shape}")
    lead = r.shape[:-2]
    return np.array(r.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -1)).reshape(lead + (4, 4))


def _real_cubic_roots(c2, c1, c0, disc) -> np.ndarray:
    """Ascending roots of x^3 + c2 x^2 + c1 x + c0, all known to be real,
    given the cubic's discriminant ``disc``: shape (3,), or (..., 3) for
    arguments that are arrays of one shape.

    Uses the trigonometric form with the angle taken by atan2 from the
    discriminant and q, not by arccos from q alone: near a double root (the
    a = 0 corner has one) the arccos argument sits next to -1, where its
    rounding error of 1e-16 moves the roots by 1e-8.  The angle is taken by
    math.atan2 per element, whose bits numpy's vectorised arctan2 does not
    always reproduce, and powers by np.float_power, which matches Python's
    ``**``.  The trigonometric form needs a negative depressed p, and
    :func:`cubic_roots`' p is -(5/6) (a - 1/2)^2 - 1/8 - |c|^2 with
    b = 1 - a, at most -1/8 on the whole family (PARAM_TOL moves it by
    about 1e-12).
    """
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * np.float_power(c2, 3) / 27.0 - c2 * c1 / 3.0 + c0
    shift = -c2 / 3.0
    m = 2.0 * np.sqrt(-p / 3.0)
    y = np.sqrt(np.maximum(disc, 0.0) / 27.0)
    angle = map(math.atan2, np.ravel(y).tolist(), np.ravel(-q).tolist())
    phi = np.reshape(list(angle), np.shape(q)) / 3.0
    third = 2.0 * math.pi / 3.0
    roots = shift + m * np.cos([phi, phi - third, phi - 2.0 * third])
    return np.sort(np.moveaxis(roots, 0, -1), axis=-1)


def cubic_roots(params: StationaryParams) -> np.ndarray:
    """Ascending closed-form eigenvalues of the transposed state, minus the
    b/2 eigenvalue that splits off exactly: shape (3,), or (..., 3) for a
    stack.

    c enters only through u = |c|^2, taken as re^2 + im^2, which for real c
    is ``c * c`` bit for bit; for b > 0 exactly one root is negative.  The
    discriminant is evaluated as a polynomial in (a, b, u) rather than from
    the rounded coefficients, which keeps it accurate where it vanishes.
    TypeError unless ``params`` is a :class:`StationaryParams`.
    """
    if not isinstance(params, StationaryParams):
        raise TypeError(f"params must be a StationaryParams, got {type(params).__name__}")
    a, b, c = params.a, params.b, params.c
    u = c.real * c.real + c.imag * c.imag
    coeff2 = -(a + 0.5 * b)
    coeff1 = -(0.25 * b * b + u - 0.5 * a * b)
    aa, b3, b4 = a * a, np.float_power(b, 3), np.float_power(b, 4)
    coeff0 = b3 / 8.0
    disc = 0.25 * (
        aa * np.float_power(a * b - 2.0 * u, 2)
        + aa * b4
        + 10.0 * a * a * b * b * u
        - 2.0 * a * b3 * u
        - 20.0 * a * b * u * u
        + 8.0 * b4 * u
        + 13.0 * b * b * u * u
        + 16.0 * np.float_power(u, 3)
    )
    return _real_cubic_roots(coeff2, coeff1, coeff0, disc)


@dataclass(frozen=True)
class PTSpectrumReport:
    """Spectrum of a partially transposed stationary state plus the verdict.

    ``eigenvalues`` are ascending, shape (4,).  ``closed_form_eigenvalues``
    (b/2 joined with the cubic roots, ascending) has already been
    cross-checked against the numerical spectrum.  For a stack every field
    gains its leading axes, the three scalars becoming arrays.
    """

    eigenvalues: np.ndarray
    min_eigenvalue: float | np.ndarray
    negativity: float | np.ndarray
    separable: bool | np.ndarray
    closed_form_eigenvalues: np.ndarray


def _at(params, index: tuple) -> str:
    """The point at ``index`` of a stack, or the one point, for a message."""
    return point_label(np.asarray(params.a)[index].item(), np.asarray(params.c)[index].item())


def _guard(gap: np.ndarray, params, what: str) -> None:
    """RuntimeError naming the first point whose gap exceeds
    CLOSED_FORM_AGREEMENT or is NaN."""
    bad = np.asarray(~(gap <= CLOSED_FORM_AGREEMENT))
    if bad.any():
        index = np.unravel_index(bad.argmax(), bad.shape)
        raise RuntimeError(f"{what} by {gap[index]:.3e} at {_at(params, index)}")


def _negativity(w: np.ndarray) -> np.ndarray:
    """-(sum of the negative eigenvalues) along the last axis: -0.0 when
    there are none, as the negated empty sum."""
    return -np.where(w < 0.0, w, 0.0).sum(axis=-1)


def ppt_analyze(params: StationaryParams) -> PTSpectrumReport:
    """Build the stationary states, transpose qubit 2, and report their
    spectra, with one eigensolver call for a stack.

    ``separable`` is the exact verdict b <= 0: b = 0 is the one separable
    point, and a b in [-PARAM_TOL, 0], which StationaryParams admits as its
    roundoff, reads separable too.  The product of each spectrum is
    cross-checked against det = -b^4/16 and the spectrum against the
    independently computed closed form, both within
    CLOSED_FORM_AGREEMENT.  Disagreement raises RuntimeError, since it
    would mean a construction bug rather than bad input.  It and the
    eigensolver's NotHermitian name the first failing point.
    """
    try:
        w, _ = hermitian_eigensystem(partial_transpose(stationary_state(params)))
    except NotHermitian as exc:
        raise NotHermitian(f"{exc} at {_at(params, exc.index)}", exc.index) from None
    b = np.asarray(params.b)
    det_gap = np.abs(np.prod(w, axis=-1) + np.float_power(b, 4) / 16.0)
    _guard(det_gap, params, "determinant disagrees with -b^4/16")
    closed = np.sort(np.concatenate([cubic_roots(params), 0.5 * b[..., None]], axis=-1), axis=-1)
    gap = np.abs(closed - w).max(axis=-1)
    _guard(gap, params, "closed-form spectrum disagrees with the numerical one")
    return PTSpectrumReport(
        eigenvalues=w,
        min_eigenvalue=w[..., 0][()],
        negativity=_negativity(w)[()],
        separable=params.b <= 0.0,
        closed_form_eigenvalues=closed,
    )


@dataclass(frozen=True, eq=False)
class SweepTable:
    """The (a, c) entanglement sweep as five read-only columns of equal
    length, one row per grid point; ``len()`` is the row count."""

    a: np.ndarray
    c: np.ndarray
    min_pt_eigenvalue: np.ndarray
    negativity: np.ndarray
    separable: np.ndarray

    def __post_init__(self):
        for column in vars(self).values():
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.a)

    def columns(self) -> dict:
        """Column name -> column, in table order."""
        return dict(vars(self))


def sweep(grid_n: int) -> SweepTable:
    """PPT verdicts over a uniform grid of a in [0, 1], real c in [-1/2, 1/2].

    Grid points with c^2 > a (1 - a) admit no state and are skipped; rows
    come in row-major order (a outer, c inner), deterministically.  Each
    value of a is analysed as one stack of its valid c values, with one
    eigensolver call.  TypeError unless grid_n is an integer, ValueError
    unless 2 <= grid_n <= MAX_GRID.
    """
    if not isinstance(grid_n, numbers.Integral):
        raise TypeError(f"grid_n must be an integer, got {reprlib.repr(grid_n)}")
    if not 2 <= grid_n <= MAX_GRID:
        raise ValueError(f"grid_n must be between 2 and MAX_GRID = {MAX_GRID}, got {grid_n}")
    c_axis = np.linspace(-0.5, 0.5, grid_n)
    rows = []
    for a in np.linspace(0.0, 1.0, grid_n):
        b = 1.0 - a
        c = c_axis[c_axis * c_axis <= a * b + PARAM_TOL]
        points = StationaryParams(a, b, c)
        report = ppt_analyze(points)
        rows.append((points.a, c, report.min_eigenvalue, report.negativity, report.separable))
    return SweepTable(*(np.concatenate(column) for column in zip(*rows)))
