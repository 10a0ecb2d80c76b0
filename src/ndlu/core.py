"""Core sparse/dense containers and the small dense kernels.

SparseMatrix is a validated CSR wrapper; Permutation pairs a forward map with
a lazily computed inverse. Dense blocks are plain float64/complex128 ndarrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs, solve_triangular

from .errors import DimensionError, SingularBlockError

__all__ = [
    "SparseMatrix",
    "Permutation",
    "as_csr",
    "as_index_set",
    "extract_block",
    "permute",
    "dense_lu",
    "triangular_solve",
]


def as_index_set(ix, n=None):
    """Validate ix as a strictly increasing int64 index array.

    If n is given, entries must lie in [0, n).
    """
    ix = np.asarray(ix, dtype=np.int64)
    if ix.ndim != 1:
        raise DimensionError("index set must be one-dimensional")
    if ix.size > 1 and not np.all(np.diff(ix) > 0):
        raise DimensionError("index set must be strictly increasing")
    if n is not None and ix.size and (ix[0] < 0 or ix[-1] >= n):
        raise DimensionError(f"index {ix[0] if ix[0] < 0 else ix[-1]} out of range [0, {n})")
    return ix


class Permutation:
    """Bijection on [0, n) stored as the forward map; inverse is lazy."""

    def __init__(self, fwd):
        fwd = np.asarray(fwd, dtype=np.int64)
        n = fwd.size
        if n and (fwd.min() < 0 or fwd.max() >= n or np.unique(fwd).size != n):
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

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n, dtype=np.int64))

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
            raise ValueError("matrix entries must be finite")
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

    def matvec(self, x):
        return self.csr @ x

    def __matmul__(self, x):
        return self.csr @ x

    def transpose(self):
        return SparseMatrix(self.csr.T.tocsr())


def as_csr(a):
    """The scipy CSR matrix of a: .csr of a SparseMatrix, otherwise a
    conversion of a (sparse or dense) to CSR."""
    return a.csr if isinstance(a, SparseMatrix) else sp.csr_matrix(a)


def extract_block(a, rows, cols):
    """Dense copy of A[rows, cols]; positions without a stored entry are 0.

    rows/cols must be strictly increasing and in range, else DimensionError.
    """
    csr = as_csr(a)
    n, m = csr.shape
    rows = as_index_set(rows, n)
    cols = as_index_set(cols, m)
    out = np.zeros((rows.size, cols.size), dtype=csr.dtype)
    if rows.size == 0 or cols.size == 0:
        return out
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    col_pos = np.full(m, -1, dtype=np.int64)
    col_pos[cols] = np.arange(cols.size)
    for i, r in enumerate(rows):
        lo, hi = indptr[r], indptr[r + 1]
        cp = col_pos[indices[lo:hi]]
        sel = cp >= 0
        out[i, cp[sel]] = data[lo:hi][sel]
    return out


def permute(a, p, q):
    """Return B with B[i, j] = A[p(i), q(j)]; nnz is preserved."""
    csr = as_csr(a)
    n, m = csr.shape
    if p.n != n or q.n != m:
        raise DimensionError("permutation sizes must match matrix shape")
    b = csr[p.fwd][:, q.fwd].tocsr()
    return SparseMatrix(b) if isinstance(a, SparseMatrix) else b


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


def dense_lu(block, level=None, segment=None):
    """Partial-pivoting LU: returns (l, u, p) with block[p.fwd] = l @ u."""
    lu, _, perm = lu_compact(block, level=level, segment=segment)
    l = np.tril(lu, -1)
    np.fill_diagonal(l, 1.0)
    u = np.triu(lu)
    return l, u, Permutation(perm)


def triangular_solve(t, b, lower=True, unit_diag=False, trans=False):
    """Solve T x = b (or T^T x = b when trans) for triangular T."""
    t = np.asarray(t)
    b = np.asarray(b)
    if t.shape[0] != t.shape[1] or t.shape[0] != b.shape[0]:
        raise DimensionError("triangular_solve shape mismatch")
    if t.shape[0] == 0:
        return b.copy()
    return solve_triangular(t, b, lower=lower, unit_diagonal=unit_diag,
                            trans=1 if trans else 0)
