"""Core containers, the one CSR coercion and the small dense kernels.

SparseMatrix holds a validated, canonical CSR copy (finite entries,
duplicates summed, sorted indices) as .csr; as_csr is the one place the
package turns any other input into CSR, and it never changes the caller's
arrays. check_int is the one integer rule for options. The dense kernels
(pivoted LU, triangular solve and inverse) call LAPACK directly on plain
float64/complex128 ndarrays.
"""

from __future__ import annotations

import numbers

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from .errors import (ConfigError, DimensionError, NonFiniteError,
                     SingularBlockError)

__all__ = [
    "SparseMatrix",
    "as_csr",
    "check_int",
    "lu_compact",
    "triangular_inverse",
    "triangular_solve",
]


class SparseMatrix:
    """CSR matrix with finite entries and strictly increasing column indices.

    Thin wrapper over scipy CSR; the scipy object is reachable as .csr for
    matvec-style plumbing.
    """

    def __init__(self, csr):
        if not sp.issparse(csr):
            raise DimensionError("expected a scipy sparse matrix")
        csr = csr.tocsr().copy()
        csr.sum_duplicates()
        csr.sort_indices()
        if csr.data.size and not np.all(np.isfinite(csr.data)):
            raise NonFiniteError("matrix entries must be finite")
        self.csr = csr

    @property
    def shape(self):
        return self.csr.shape


def as_csr(a):
    """The scipy CSR matrix of a: .csr of a SparseMatrix, otherwise a
    conversion of a (sparse or dense) to CSR. A CSR that is not canonical
    (duplicate or unsorted entries) is copied and summed: callers see each
    entry once, and the caller's arrays are left as they were. Input that
    does not hold booleans, integers, reals or complex numbers raises
    ConfigError."""
    if isinstance(a, SparseMatrix):
        return a.csr
    if not sp.issparse(a):
        a = np.asarray(a)
        if a.dtype.kind not in "biufc":
            raise ConfigError(f"matrix must hold numbers, got dtype {a.dtype}")
    csr = sp.csr_matrix(a)
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    return csr


def check_int(name, value, lowest):
    """ConfigError unless value is an int (a numpy integer too, never a
    bool) of at least lowest."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lowest):
        raise ConfigError(f"{name} must be an int >= {lowest}, got {value!r}")


def lu_compact(block, level=None, segment=None):
    """Partial-pivoting LU in LAPACK's compact form.

    Returns (lu, perm) where lu packs the unit-lower L below the diagonal
    and U on/above it, and perm is the row permutation with block[perm] =
    L @ U. An exactly singular block raises SingularBlockError tagged with
    level/segment.
    """
    block = np.ascontiguousarray(block)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise DimensionError("dense LU needs a square block")
    if block.size == 0:
        return block.copy(), np.empty(0, np.int64)
    lu, piv, info = _lapack("getrf", block)(block, overwrite_a=False)
    if info > 0:
        raise SingularBlockError(
            f"zero pivot at position {info - 1} in {block.shape[0]}x{block.shape[0]} block",
            level=level,
            segment=segment,
        )
    perm = np.arange(block.shape[0], dtype=np.int64)
    for k, pk in enumerate(piv):
        if pk != k:
            perm[k], perm[pk] = perm[pk], perm[k]
    return lu, perm


# LAPACK handles by (routine, dtypes of the arrays passed). Each entry is a
# function of its key alone, so the cache is safe to share.
_LAPACK = {}


def _lapack(name, *arrays):
    key = (name, *(a.dtype for a in arrays))
    func = _LAPACK.get(key)
    if func is None:
        func = _LAPACK[key] = get_lapack_funcs((name,), arrays)[0]
    return func


def triangular_solve(t, b, lower=True, unit_diag=False, trans=False):
    """Solve T x = b (or T^T x = b when trans) for triangular T.

    One direct LAPACK trtrs call with the arguments
    scipy.linalg.solve_triangular passes, so the result is bitwise the same:
    an F-ordered T goes in as is, any other T as its transpose with lower
    and trans flipped. Unlike solve_triangular it does not check T and b for
    NaNs and infinities; callers check their payloads once instead. A zero
    on a non-unit diagonal raises SingularBlockError.
    """
    t = np.asarray(t)
    b = np.asarray(b)
    if t.shape[0] != t.shape[1] or t.shape[0] != b.shape[0]:
        raise DimensionError("triangular_solve shape mismatch")
    if t.shape[0] == 0:
        return b.copy()
    trtrs = _lapack("trtrs", t, b)
    if b.size == 0:
        return np.empty_like(b, dtype=trtrs.dtype)
    if t.flags.f_contiguous:
        x, info = trtrs(t, b, lower=lower, trans=trans, unitdiag=unit_diag)
    else:
        x, info = trtrs(t.T, b, lower=not lower, trans=not trans,
                        unitdiag=unit_diag)
    _check_triangular(info, "trtrs", t.shape[0])
    return x


def triangular_inverse(t, lower=True, unit_diag=False):
    """Invert the lower (or upper) triangle of square t in one LAPACK trtri
    call.

    Returns a new F-ordered array holding the inverse in that triangle; the
    other strict triangle keeps t's entries, and so does the diagonal when
    unit_diag. Two calls therefore turn a compact LU into one array packing
    L^-1 (strictly below the diagonal) and U^-1 (on and above it). Like
    triangular_solve it does not check for NaNs and infinities. A zero on a
    non-unit diagonal raises SingularBlockError.
    """
    t = np.asarray(t)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionError("triangular_inverse needs a square block")
    if t.shape[0] == 0:
        return np.asfortranarray(t.copy())
    inv, info = _lapack("trtri", t)(t, lower=lower, unitdiag=unit_diag)
    _check_triangular(info, "trtri", t.shape[0])
    return inv


def _check_triangular(info, routine, k):
    if info > 0:
        raise SingularBlockError(f"zero diagonal at position {info - 1} "
                                 f"in {k}x{k} triangular block")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
