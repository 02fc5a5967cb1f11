"""Dense complex linear algebra shared by the model modules.

Everything operates on plain numpy arrays (promoted to complex128) and
returns fresh arrays; inputs are never mutated.  The matrices involved are
tiny (at most 16x16), so robust dense LAPACK routines are used throughout.
"""

from __future__ import annotations

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


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise DimMismatch(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    return a


def _require_square(a: np.ndarray) -> None:
    if a.shape[-2] != a.shape[-1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")


def hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack (..., n, n), with one LAPACK call.

    Returns ``np.linalg.eigh(m)`` itself, a pair to unpack as ``w, v``:
    real ascending eigenvalues, and the orthonormal eigenvector of w[i] in
    column i of v, along the input's leading axes.  Raises NotHermitian for
    the first matrix whose symmetry error exceeds HERMITIAN_TOL.  The
    reconstruction V diag(w) V+ matches the input to machine precision for
    the matrix sizes this package deals in.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] == 0:
        raise DimMismatch(f"expected nonempty matrices, got shape {a.shape}")
    _require_square(a)
    err = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = err > HERMITIAN_TOL
    if bad.any():
        index = tuple(int(i) for i in np.unravel_index(bad.argmax(), bad.shape))
        where = f" in matrix {index}" if index else ""
        raise NotHermitian(
            f"symmetry error {err[index]:.3e} exceeds tolerance {HERMITIAN_TOL:.3e}{where}",
            index,
        )
    return np.linalg.eigh(a)


def null_space(m) -> list[np.ndarray]:
    """Orthonormal basis of the kernel of a square matrix, via SVD.

    A singular direction counts as null when its singular value is at most
    NULL_SPACE_TOL times the largest one, so the test is insensitive to overall
    scale; the zero matrix returns a basis of the whole space.
    """
    a = _as_matrix(m)
    _require_square(a)
    _, s, vh = np.linalg.svd(a)
    cutoff = NULL_SPACE_TOL * float(s[0])
    return [vh[i].conj() for i in range(a.shape[0]) if s[i] <= cutoff]


def _orthonormal_columns(vectors) -> np.ndarray:
    if isinstance(vectors, (list, tuple)):
        a = np.column_stack([np.asarray(v, dtype=complex).ravel() for v in vectors])
    else:
        a = _as_matrix(vectors)
    q, _ = np.linalg.qr(a)
    return q


def principal_angles(u, v) -> np.ndarray:
    """Principal angles between the column spans of ``u`` and ``v``.

    Accepts 2-d arrays (columns span) or sequences of vectors, which must be
    linearly independent; both spans must have equal dimension.  Uses the
    sine-based formulation, which keeps full precision for the near-zero
    angles this package asserts on.  Angles come back ascending, in
    [0, pi/2].
    """
    qu = _orthonormal_columns(u)
    qv = _orthonormal_columns(v)
    if qu.shape[0] != qv.shape[0]:
        raise DimMismatch(f"ambient dimensions differ: {qu.shape[0]} vs {qv.shape[0]}")
    if qu.shape[1] != qv.shape[1]:
        raise DimMismatch(f"subspace dimensions differ: {qu.shape[1]} vs {qv.shape[1]}")
    resid = qv - qu @ (qu.conj().T @ qv)
    sines = np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0)
    return np.sort(np.arcsin(sines))
