"""Dense complex linear algebra shared by the model modules.

Everything operates on plain numpy arrays (promoted to complex128) and
returns fresh arrays; inputs are never mutated.  The matrices involved are
tiny (at most 16x16), so robust dense LAPACK routines are used throughout.

Each rule about an array argument is stated once, here: :func:`_as_numbers`
casts any array argument and names it in its errors, :func:`_as_square` makes
one a finite square matrix, and :func:`_require_hermitian` tests symmetry.
"""

from __future__ import annotations

import numbers
import reprlib

import numpy as np

#: largest |m - m+| entry hermitian_eigensystem accepts
HERMITIAN_TOL = 1e-10

#: null_space counts a singular value as zero at this fraction of the largest
NULL_SPACE_TOL = 1e-10


class NotHermitian(ValueError):
    """Raised when a matrix fails its Hermitian symmetry check; ``index`` is
    the stack index of the first failing matrix, () for a single matrix."""

    def __init__(self, message: str, index: tuple = ()):
        super().__init__(message)
        self.index = index


class DimMismatch(ValueError):
    """Raised when operand dimensions are incompatible."""


class NotFinite(ValueError):
    """Raised when an argument holds an int beyond the largest float."""


def _as_numbers(value, name: str, dtype: type) -> np.ndarray:
    """``value`` as an array of ``dtype``, float or complex, copied only to
    cast it: the one cast of the package's array arguments.  Its errors name
    ``name``: ValueError for a ragged nesting, NotFinite for an int beyond
    the largest float, and TypeError for anything but numbers (a string,
    None) or for complex numbers where ``dtype`` is float."""
    try:
        a = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape" names no argument
        raise ValueError(f"{name} must be a rectangular array, got {reprlib.repr(value)}") from None
    if a.dtype.kind == "O" and all(isinstance(x, numbers.Number) for x in a.flat):
        # an int beyond int64 makes an array of Python objects
        real = all(isinstance(x, numbers.Real) for x in a.flat)
        try:
            a = a.astype(float if real else complex)
        except OverflowError:
            raise NotFinite(f"{name} must be finite, got {reprlib.repr(value)}") from None
    if a.dtype.kind not in ("biuf" if dtype is float else "biufc"):
        if a.dtype.kind == "c":  # before the cast drops the imaginary part
            raise TypeError(f"{name} must be real numbers, got {reprlib.repr(value)}")
        # a string would be cast to its number, None to NaN
        raise TypeError(f"{name} must be a number or an array of numbers, got {reprlib.repr(value)}")
    return a.astype(dtype, copy=False)


def _as_square(value, name: str) -> np.ndarray:
    """``value`` cast by :func:`_as_numbers` to a complex, nonempty square
    matrix of finite entries: DimMismatch naming ``name`` for any other
    shape, ValueError for a NaN or infinite entry."""
    a = _as_numbers(value, name, complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimMismatch(f"{name} must be a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _require_hermitian(value: np.ndarray, name: str) -> None:
    """NotHermitian naming ``name`` unless each matrix of the finite complex
    array ``value``, one or a stack (..., n, n), has a symmetry error, its
    largest |m - m+| entry, of at most HERMITIAN_TOL; the error names the
    stack index of the first matrix that fails."""
    with np.errstate(over="ignore"):  # a huge entry reads as an infinite error
        err = np.abs(value - value.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = err > HERMITIAN_TOL
    if bad.any():
        index = tuple(int(i) for i in np.unravel_index(bad.argmax(), bad.shape))
        where = f" in matrix {index}" if index else ""
        message = f"{name} is not Hermitian: symmetry error {err[index]:.3e} exceeds"
        raise NotHermitian(f"{message} tolerance {HERMITIAN_TOL:.3e}{where}", index)


def hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack (..., n, n), with one LAPACK call.

    Returns ``np.linalg.eigh(m)`` itself, a pair to unpack as ``w, v``:
    real ascending eigenvalues, and the orthonormal eigenvector of w[i] in
    column i of v, along the input's leading axes.  Raises DimMismatch for
    any other shape, ValueError for a NaN or infinite entry, and
    NotHermitian for the first matrix whose symmetry error exceeds
    HERMITIAN_TOL.  The reconstruction V diag(w) V+ matches the input to
    machine precision for the matrix sizes this package deals in.
    """
    a = _as_numbers(m, "m", complex)
    if a.ndim < 2 or a.shape[-1] == 0 or a.shape[-2] != a.shape[-1]:
        raise DimMismatch(f"m must hold nonempty square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():  # a NaN symmetry error would pass the test
        raise ValueError("m must be finite")
    _require_hermitian(a, "m")
    return np.linalg.eigh(a)


def null_space(m) -> list[np.ndarray]:
    """Orthonormal basis of the kernel of a square matrix, via SVD.

    A singular direction counts as null when its singular value is at most
    NULL_SPACE_TOL times the largest one, so the test is insensitive to overall
    scale; the zero matrix returns a basis of the whole space.  Errors of
    :func:`_as_square` unless ``m`` is a finite, nonempty square matrix.
    """
    a = _as_square(m, "m")
    _, s, vh = np.linalg.svd(a)
    cutoff = NULL_SPACE_TOL * float(s[0])
    return [vh[i].conj() for i in range(a.shape[0]) if s[i] <= cutoff]


def _orthonormal_columns(vectors, name: str) -> np.ndarray:
    if isinstance(vectors, (list, tuple)):
        if not vectors:
            raise DimMismatch(f"{name} holds no vectors")
        a = np.column_stack([_as_numbers(v, name, complex).ravel() for v in vectors])
    else:
        a = _as_numbers(vectors, name, complex)
    if a.ndim != 2 or a.size == 0:
        raise DimMismatch(f"{name} must be a nonempty 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    q, _ = np.linalg.qr(a)
    return q


def principal_angles(u, v) -> np.ndarray:
    """Principal angles between the column spans of ``u`` and ``v``.

    Accepts 2-d arrays (columns span) or nonempty sequences of vectors,
    which must be finite and linearly independent; both spans must have
    equal dimension.  Uses the sine-based formulation, which keeps full
    precision for the near-zero angles this package asserts on.  Angles
    come back ascending, in [0, pi/2].
    """
    qu = _orthonormal_columns(u, "u")
    qv = _orthonormal_columns(v, "v")
    if qu.shape[0] != qv.shape[0]:
        raise DimMismatch(f"ambient dimensions differ: {qu.shape[0]} vs {qv.shape[0]}")
    if qu.shape[1] != qv.shape[1]:
        raise DimMismatch(f"subspace dimensions differ: {qu.shape[1]} vs {qv.shape[1]}")
    resid = qv - qu @ (qu.conj().T @ qv)
    sines = np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0)
    return np.sort(np.arcsin(sines))
