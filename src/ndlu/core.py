"""Core containers, the one matrix gate and the small dense kernels.

as_csr is the one gate for matrices: it returns the canonical CSR (finite
entries, duplicates summed, sorted indices, float64 or complex128) of a
square matrix or raises, and never changes the caller's arrays; a
SparseMatrix holds a copy of what it returned. as_numbers is the one rule
for arrays of numbers, check_int for integer options. The dense kernels
(pivoted LU, Bunch-Kaufman LDL^T, triangular solve and inverse) call LAPACK
directly on plain float64/complex128 ndarrays. This is the one module of
the package that calls LAPACK routines itself, every handle coming from one
cache (_lapack); lowrank reaches its pivoted QR through scipy.linalg.qr.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from .errors import (ConfigError, DimensionError, NonFiniteError,
                     SingularBlockError)

__all__ = [
    "SparseMatrix",
    "as_csr",
    "as_numbers",
    "check_int",
    "ldl",
    "lu_compact",
    "triangular_inverse",
    "triangular_solve",
]


class SparseMatrix:
    """A matrix that has passed as_csr, as its canonical CSR .csr: square,
    finite, float64 or complex128, duplicates summed and indices sorted.
    It takes whatever as_csr takes. The CSR is a copy, so changing the
    caller's arrays leaves it as it was. An entry point wraps any other
    matrix in one, so the gate scans it once.
    """

    def __init__(self, a):
        self.csr = as_csr(a).copy()

    @property
    def shape(self):
        return self.csr.shape


def as_numbers(name, a):
    """a as an ndarray; ConfigError unless it is a regular array of
    booleans, integers, reals or complex numbers."""
    try:
        a = np.asarray(a)
    except ValueError as exc:  # a ragged nested sequence
        raise ConfigError(f"{name} must hold numbers: {exc}") from exc
    if a.dtype.kind not in "biufc":
        raise ConfigError(f"{name} must hold numbers, got dtype {a.dtype}")
    return a


def as_csr(a):
    """The canonical CSR of the square matrix a in float64 or complex128;
    .csr of a SparseMatrix, which passed this gate, comes back unchecked.
    Dense a must be a 2-D array of numbers (as_numbers). A non-canonical
    CSR is copied and summed, so the caller's arrays are left as they were.
    A non-square a raises DimensionError, a NaN or infinity NonFiniteError.
    """
    if isinstance(a, SparseMatrix):
        return a.csr
    if not sp.issparse(a):
        a = as_numbers("matrix", a)
        if a.ndim != 2:
            raise DimensionError(f"matrix must be 2-D, got shape {a.shape}")
    csr = sp.csr_matrix(a)
    if csr.shape[0] != csr.shape[1]:
        raise DimensionError(f"the solver needs a square matrix, got {csr.shape}")
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    if not np.all(np.isfinite(csr.data)):
        raise NonFiniteError("matrix entries must be finite")
    return csr.astype(np.promote_types(csr.dtype, np.float64), copy=False)


def check_int(name, value, lowest):
    """ConfigError unless value is an int (a numpy integer too, never a
    bool) of at least lowest."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lowest):
        raise ConfigError(f"{name} must be an int >= {lowest}, got {value!r}")


def lu_compact(block):
    """Partial-pivoting LU in LAPACK's compact form.

    Returns (lu, perm) where lu packs the unit-lower L below the diagonal
    and U on/above it, and perm is the row permutation with block[perm] =
    L @ U. An exactly singular block raises SingularBlockError naming the
    zero pivot; the caller that knows the block adds where it sits.
    """
    block = np.ascontiguousarray(block)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise DimensionError("dense LU needs a square block")
    if block.size == 0:
        return block.copy(), np.empty(0, np.int64)
    lu, piv, info = _lapack("getrf", block)(block, overwrite_a=False)
    if info > 0:
        raise SingularBlockError(f"zero pivot at position {info - 1} in "
                                 f"{block.shape[0]}x{block.shape[0]} block")
    perm = list(range(block.shape[0]))
    for k, pk in enumerate(piv.tolist()):
        if pk != k:
            perm[k], perm[pk] = perm[pk], perm[k]
    return lu, np.array(perm, dtype=np.int64)


def ldl(block):
    """Bunch-Kaufman LDL^T of a real symmetric block, read from its lower
    triangle: (lower, dinv, perm) with block[perm][:, perm] = lower @ D @
    lower.T, bitwise scipy.linalg.ldl's lu[perm] and the dense inverse of D.

    One dsytrf call with the workspace scipy.linalg.ldl hands it, whose
    blocking the result depends on. One loop reads ipiv for the 1x1 and 2x2
    pivots and the interchanges, which are replayed on the unit lower factor
    from the last pivot back, each on the columns from its pivot on. D^-1 is
    a reciprocal per 1x1 pivot and one stacked inverse over the 2x2 ones. A
    zero 1x1 pivot, a singular 2x2 one or a non-finite pivot raises
    SingularBlockError; the caller that knows the block adds where it sits.
    """
    k = block.shape[0]
    lwork = _LAPACK.get(("sytrf workspace", k))
    if lwork is None:
        work, _ = _lapack("sytrf_lwork", block)(k, lower=1)
        lwork = _LAPACK[("sytrf workspace", k)] = int(work)
    ldu, ipiv, _ = _lapack("sytrf", block)(block, lwork=lwork, lower=1)
    piv = ipiv.tolist()
    ones, pairs, swaps = [], [], []
    i = 0
    while i < k:
        if piv[i] > 0:
            # 1x1 pivot; row i was interchanged with row piv[i] - 1
            ones.append(i)
            if piv[i] != i + 1:
                swaps.append((i, piv[i] - 1, i))
            i += 1
        else:
            # 2x2 pivot on rows i, i + 1; row i + 1 was interchanged with
            # row -piv[i] - 1, from column i on
            pairs.append(i)
            if -piv[i] != i + 2:
                swaps.append((i + 1, -piv[i] - 1, i))
            i += 2
    single = ldu.diagonal()[ones]
    if not single.all():
        raise SingularBlockError(f"singular diagonal in {k}x{k} block")
    if not np.isfinite(single).all():
        raise SingularBlockError(f"non-finite pivot in {k}x{k} block")
    dinv = np.zeros((k, k))
    dinv[ones, ones] = 1.0 / single
    lu = np.where(_triangles(k)[0], ldu, 0.0)
    lu.flat[::k + 1] = 1.0
    if pairs:
        first = np.array(pairs)
        rows = first[:, None, None] + np.arange(2)[:, None]
        cols = first[:, None, None] + np.arange(2)
        # D's subdiagonal entry of each 2x2 pivot, mirrored
        blocks = ldu[np.maximum(rows, cols), np.minimum(rows, cols)]
        if not np.isfinite(blocks).all():
            raise SingularBlockError(f"non-finite pivot in {k}x{k} block")
        try:
            dinv[rows, cols] = np.linalg.inv(blocks)
        except np.linalg.LinAlgError:
            raise SingularBlockError(
                f"singular diagonal in {k}x{k} block") from None
        lu[first + 1, first] = 0.0
    perm = list(range(k))
    for row, other, col in reversed(swaps):
        lu[[other, row], col:] = lu[[row, other], col:]
        perm[row], perm[other] = perm[other], perm[row]
    perm = np.argsort(perm)
    return lu[perm], dinv, perm


@functools.lru_cache(maxsize=64)
def _triangles(k):
    """Masks of the strict lower and of the upper (diagonal included)
    triangle of a k x k block."""
    strict = np.tri(k, k, -1, dtype=bool)
    return strict, ~strict


# LAPACK handles by (routine, dtypes of the arrays passed), and dsytrf's
# workspace by block size. Each entry is a function of its key alone, so the
# cache is safe to share.
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
