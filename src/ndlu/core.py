"""Core sparse/dense containers and the small dense kernels.

SparseMatrix is a validated CSR wrapper; Permutation pairs a forward map with
a lazily computed inverse. Dense blocks are plain float64/complex128 ndarrays.
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
    "Permutation",
    "as_csr",
    "check_int",
    "lu_compact",
    "triangular_solve",
]


class Permutation:
    """Bijection on [0, n) stored as the forward map; inverse is lazy."""

    def __init__(self, fwd):
        fwd = np.asarray(fwd, dtype=np.int64)
        n = fwd.size
        if n and (fwd.min() < 0 or fwd.max() >= n
                  or np.bincount(fwd, minlength=n).max() != 1):
            raise DimensionError("not a permutation of 0..n-1")
        self.fwd = fwd
        self._inv = None

    @property
    def n(self):
        return self.fwd.size

    @property
    def inv(self):
        if self._inv is None:
            inv = np.empty_like(self.fwd)
            inv[self.fwd] = np.arange(self.fwd.size, dtype=np.int64)
            self._inv = inv
        return self._inv

    def inverse(self):
        p = Permutation(self.inv)
        p._inv = self.fwd
        return p

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.fwd, other.fwd)

    def __repr__(self):
        return f"Permutation({self.fwd.tolist()})"


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

    @classmethod
    def from_coo(cls, shape, rows, cols, vals, dtype=None):
        m = sp.coo_matrix((vals, (rows, cols)), shape=shape, dtype=dtype)
        return cls(m.tocsr())

    @classmethod
    def from_dense(cls, a):
        return cls(sp.csr_matrix(np.asarray(a)))

    @property
    def shape(self):
        return self.csr.shape

    @property
    def nnz(self):
        return self.csr.nnz

    @property
    def dtype(self):
        return self.csr.dtype

    def to_dense(self):
        return self.csr.toarray()

    def __matmul__(self, x):
        return self.csr @ x


def as_csr(a):
    """The scipy CSR matrix of a: .csr of a SparseMatrix, otherwise a
    conversion of a (sparse or dense) to CSR."""
    return a.csr if isinstance(a, SparseMatrix) else sp.csr_matrix(a)


def check_int(name, value, lowest):
    """ConfigError unless value is an int (a numpy integer too, never a
    bool) of at least lowest."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lowest):
        raise ConfigError(f"{name} must be an int >= {lowest}, got {value!r}")


def lu_compact(block, level=None, segment=None):
    """Partial-pivoting LU in LAPACK's compact form.

    Returns (lu, piv, perm) where lu packs the unit-lower L below the
    diagonal and U on/above it, piv is the raw pivot vector, and perm is the
    row permutation with block[perm] = L @ U. An exactly singular block
    raises SingularBlockError tagged with level/segment.
    """
    block = np.ascontiguousarray(block)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise DimensionError("dense LU needs a square block")
    if block.size == 0:
        return block.copy(), np.empty(0, np.int32), np.empty(0, np.int64)
    getrf, = get_lapack_funcs(("getrf",), (block,))
    lu, piv, info = getrf(block, overwrite_a=False)
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
    return lu, piv, perm


# LAPACK trtrs handles by (matrix dtype, right-hand side dtype). Each entry
# is a function of its key alone, so the cache is safe to share.
_TRTRS = {}


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
    key = (t.dtype, b.dtype)
    trtrs = _TRTRS.get(key)
    if trtrs is None:
        trtrs = _TRTRS[key] = get_lapack_funcs(("trtrs",), (t, b))[0]
    if b.size == 0:
        return np.empty_like(b, dtype=trtrs.dtype)
    if t.flags.f_contiguous:
        x, info = trtrs(t, b, lower=lower, trans=trans, unitdiag=unit_diag)
    else:
        x, info = trtrs(t.T, b, lower=not lower, trans=not trans,
                        unitdiag=unit_diag)
    if info > 0:
        raise SingularBlockError(
            f"zero diagonal at position {info - 1} in "
            f"{t.shape[0]}x{t.shape[0]} triangular block")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of trtrs")
    return x
