"""Separability analysis of the stationary family via partial transposition.

For two qubits, positivity of the partial transpose decides separability
completely, so the sign of the smallest transposed eigenvalue is a full
verdict and the total weight of the negative part (the negativity)
quantifies the entanglement.  For real coupling c the transposed spectrum
is also available in closed form: one eigenvalue is b/2 exactly, the other
three are the roots of a cubic whose coefficients are polynomial in
(a, b, c), and for every b > 0 exactly one of those roots is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigensystem
from .quantum import (
    PARAM_TOL,
    KernelBasis,
    StationaryParams,
    kernel_basis,
    stationary_state,
)

#: a state counts as separable when no transposed eigenvalue is below this
SEPARABLE_TOL = 1e-10

#: |Im c| at or below this is treated as real for the closed-form route
REAL_C_TOL = 1e-12

#: closed-form and numerical spectra must agree this well, or something is broken
CLOSED_FORM_AGREEMENT = 1e-9

#: most points per axis sweep() accepts; it analyses up to MAX_GRID**2 states
MAX_GRID = 1001


class BadSubsystem(ValueError):
    """Subsystem index other than 1 or 2."""


def partial_transpose(rho, subsystem: int = 2) -> np.ndarray:
    """Transpose the indices of one qubit of a 4x4 two-qubit matrix.

    Entries are only moved, never recomputed, so applying the same
    transposition twice gives back the input exactly.
    """
    r = np.asarray(rho, dtype=complex)
    if r.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {r.shape}")
    if subsystem not in (1, 2):
        raise BadSubsystem(f"subsystem must be 1 or 2, got {subsystem!r}")
    blocks = r.reshape(2, 2, 2, 2)
    if subsystem == 1:
        swapped = blocks.transpose(2, 1, 0, 3)
    else:
        swapped = blocks.transpose(0, 3, 2, 1)
    return swapped.reshape(4, 4).copy()


def _real_cubic_roots(c2: float, c1: float, c0: float, disc: float) -> np.ndarray:
    """Ascending roots of x^3 + c2 x^2 + c1 x + c0, all known to be real,
    given the cubic's discriminant ``disc``.

    Uses the trigonometric form with the angle taken by atan2 from the
    discriminant and q, not by arccos from q alone: near a double root (the
    a = 0 corner has one) the arccos argument sits next to -1, where its
    rounding error of 1e-16 moves the roots by 1e-8.  A nonnegative
    depressed p only occurs for a triple root on this domain.
    """
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    shift = -c2 / 3.0
    if p >= 0.0:
        return np.full(3, shift - np.cbrt(q))
    m = 2.0 * math.sqrt(-p / 3.0)
    phi = math.atan2(math.sqrt(max(disc, 0.0) / 27.0), -q) / 3.0
    third = 2.0 * math.pi / 3.0
    roots = shift + m * np.cos([phi, phi - third, phi - 2.0 * third])
    return np.sort(roots)


def cubic_roots(params: StationaryParams) -> np.ndarray:
    """Ascending closed-form eigenvalues of the transposed state, minus the
    b/2 eigenvalue that splits off exactly.

    Only defined for real c; for b > 0 exactly one root is negative.  The
    discriminant is evaluated as a polynomial in (a, b, c) rather than from
    the rounded coefficients, which keeps it accurate where it vanishes.
    """
    if abs(params.c.imag) > REAL_C_TOL:
        raise ValueError("closed-form roots are only available for real c")
    a, b, c = params.a, params.b, params.c.real
    u = c * c
    coeff2 = -(a + 0.5 * b)
    coeff1 = -(0.25 * b * b + u - 0.5 * a * b)
    coeff0 = b ** 3 / 8.0
    disc = 0.25 * (
        a * a * (a * b - 2.0 * u) ** 2
        + a * a * b ** 4
        + 10.0 * a * a * b * b * u
        - 2.0 * a * b ** 3 * u
        - 20.0 * a * b * u * u
        + 8.0 * b ** 4 * u
        + 13.0 * b * b * u * u
        + 16.0 * u ** 3
    )
    return _real_cubic_roots(coeff2, coeff1, coeff0, disc)


@dataclass(frozen=True)
class PTSpectrumReport:
    """Spectrum of a partially transposed stationary state plus the verdict.

    ``closed_form_eigenvalues`` (b/2 joined with the cubic roots) is filled
    for real c only; when present it has already been cross-checked against
    the numerical spectrum.
    """

    eigenvalues: np.ndarray
    min_eigenvalue: float
    negativity: float
    separable: bool
    closed_form_eigenvalues: np.ndarray | None


def ppt_analyze(params: StationaryParams, basis: KernelBasis | None = None) -> PTSpectrumReport:
    """Build the stationary state, transpose qubit 2, and report its spectrum.

    For real c the closed-form spectrum is computed independently and must
    match the numerical one within 1e-9; disagreement raises RuntimeError,
    since it would mean a construction bug rather than bad input.
    """
    rho = stationary_state(params, basis)
    spectrum = hermitian_eigensystem(partial_transpose(rho, subsystem=2))
    w = spectrum.eigenvalues
    closed = None
    if abs(params.c.imag) <= REAL_C_TOL:
        closed = np.sort(np.append(cubic_roots(params), 0.5 * params.b))
        gap = float(np.abs(closed - w).max())
        if gap > CLOSED_FORM_AGREEMENT:
            raise RuntimeError(
                f"closed-form spectrum disagrees with the numerical one by {gap:.3e}"
            )
    negativity = float(-w[w < 0.0].sum())
    return PTSpectrumReport(
        eigenvalues=w,
        min_eigenvalue=float(w[0]),
        negativity=negativity,
        separable=bool(w[0] >= -SEPARABLE_TOL),
        closed_form_eigenvalues=closed,
    )


@dataclass(frozen=True)
class SweepRow:
    """One grid point of the (a, c) entanglement sweep."""

    a: float
    c: float
    min_pt_eigenvalue: float
    negativity: float
    separable: bool


def sweep(grid_n: int) -> list[SweepRow]:
    """PPT verdicts over a uniform grid of a in [0, 1], real c in [-1/2, 1/2].

    Grid points with c^2 > a (1 - a) admit no state and are skipped; rows
    come back in row-major order (a outer, c inner), deterministically.
    ValueError unless 2 <= grid_n <= MAX_GRID.
    """
    if not 2 <= grid_n <= MAX_GRID:
        raise ValueError(f"grid_n must be between 2 and MAX_GRID = {MAX_GRID}, got {grid_n}")
    basis = kernel_basis()
    rows = []
    for a in np.linspace(0.0, 1.0, grid_n):
        b = 1.0 - a
        for c in np.linspace(-0.5, 0.5, grid_n):
            if c * c > a * b + PARAM_TOL:
                continue
            report = ppt_analyze(StationaryParams(float(a), float(b), complex(c)), basis)
            rows.append(
                SweepRow(
                    a=float(a),
                    c=float(c),
                    min_pt_eigenvalue=report.min_eigenvalue,
                    negativity=report.negativity,
                    separable=report.separable,
                )
            )
    return rows
