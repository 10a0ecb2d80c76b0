"""Applying a factorization: solve Ax = b with residual reporting.

The factor list applies in three passes: every factor's left action in list
order, the block-diagonal middle actions (symmetric mode only), then every
factor's right action in reverse list order. Each pass runs once over the
whole right-hand side: a factor's actions index rows only, so one dispatch
per factor serves every column of an n x k block. A vector right-hand side
keeps vector arithmetic throughout, so its solution does not depend on how
other right-hand sides are solved; a column of a block agrees with its
vector solve to roundoff (matrix-matrix against matrix-vector products).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_csr, check_int, triangular_solve
from .errors import ConfigError, DimensionError, NonFiniteError
from .factor import (EliminationFactor, SparsifyFactor, SpaluFactorization,
                     SymEliminationFactor)


@dataclass
class SolveReport:
    """Per-column outcome: residual against the original matrix.

    residual is relative (norm(b - A x) / norm(b)) unless the column's
    right-hand side is exactly zero, in which case it is the absolute
    residual and zero_rhs is set.
    """

    residual: float
    refine_steps: int
    zero_rhs: bool = False


# ---------------------------------------------------------------------------
# Elementary factor actions on a nested-order vector or block (in place)
# ---------------------------------------------------------------------------


def apply_factor_left(factor, y):
    """Forward action of one factor on a nested-order vector or block."""
    if isinstance(factor, SparsifyFactor):
        if factor.redundant.size and factor.skeleton.size:
            y[factor.redundant] -= factor.interp.T @ y[factor.skeleton]
        return
    if factor.idx.size == 0:
        return
    if isinstance(factor, EliminationFactor):
        t = triangular_solve(factor.compact_lu, y[factor.idx][factor.perm],
                             lower=True, unit_diag=True)
        if factor.nbr.size:
            y[factor.nbr] -= factor.coupling_left @ t
    else:
        t = triangular_solve(factor.lower_perm, y[factor.idx][factor.perm],
                             lower=True, unit_diag=True)
        if factor.nbr.size:
            y[factor.nbr] -= factor.coupling @ t
    y[factor.idx] = t


def apply_factor_middle(factor, y):
    """Block-diagonal action between the passes (symmetric mode only)."""
    if isinstance(factor, SymEliminationFactor) and factor.idx.size:
        y[factor.idx] = factor.dinv @ y[factor.idx]


def apply_factor_right(factor, y):
    """Backward action of one factor on a nested-order vector or block."""
    if isinstance(factor, SparsifyFactor):
        if factor.redundant.size and factor.skeleton.size:
            y[factor.skeleton] -= factor.interp @ y[factor.redundant]
        return
    if factor.idx.size == 0:
        return
    if isinstance(factor, EliminationFactor):
        v = y[factor.idx]
        if factor.nbr.size:
            v = v - factor.coupling_right @ y[factor.nbr]
        y[factor.idx] = triangular_solve(factor.compact_lu, v, lower=False)
    else:
        v = y[factor.idx]
        if factor.nbr.size:
            v = v - factor.coupling.T @ y[factor.nbr]
        q = triangular_solve(factor.lower_perm, v, lower=True, unit_diag=True,
                             trans=True)
        out = np.empty_like(q)
        out[factor.perm] = q
        y[factor.idx] = out


def apply_factors(factorization, vec, audit=False):
    """All three passes on a nested-order vector or n x k block; returns a
    new C-ordered array.

    With audit=True also returns a list of locality violations: rows a
    factor changed outside its declared scope (there should be none).
    """
    y = np.array(vec, dtype=np.promote_types(vec.dtype, factorization.dtype),
                 order="C")
    violations = []

    def run(action, factors):
        for f in factors:
            if not audit:
                action(f, y)
                continue
            before = y.copy()
            action(f, y)
            changed = np.flatnonzero(
                (before != y).reshape(len(y), -1).any(axis=1))
            outside = np.setdiff1d(changed, f.scope, assume_unique=False)
            if outside.size:
                violations.append((f.kind, f.level, outside))

    run(apply_factor_left, factorization.factors)
    if factorization.symmetric:
        run(apply_factor_middle, factorization.factors)
    run(apply_factor_right, list(reversed(factorization.factors)))
    return (y, violations) if audit else y


# ---------------------------------------------------------------------------
# Residuals and the driver
# ---------------------------------------------------------------------------


def _as_csr(a, n):
    csr = as_csr(a)
    if csr.shape != (n, n):
        raise DimensionError(
            f"matrix is {csr.shape}, factorization covers {n} unknowns")
    return csr


def residual_with_flag(a, x, b):
    """(residual, zero_rhs) of a vector, or arrays of both over the columns
    of a block: relative unless the column of b is exactly zero, then
    absolute."""
    csr = as_csr(a)
    if csr.shape[1] != len(x) or csr.shape[0] != len(b):
        raise DimensionError("residual: dimensions do not match")
    r = b - csr @ x
    axis = 0 if r.ndim == 2 else None
    r_norm = np.linalg.norm(r, axis=axis)
    b_norm = np.linalg.norm(b, axis=axis)
    zero = b_norm == 0.0
    res = r_norm / np.where(zero, 1.0, b_norm)
    return (res, zero) if axis == 0 else (float(res), bool(zero))


def _solve_passes(factorization, b):
    """The three passes on b, permuted to nested order and back."""
    fwd = factorization.order.fwd
    x = np.empty_like(b)
    x[fwd] = apply_factors(factorization, b[fwd])
    return x


def solve(factorization, a_original, b, refine=0):
    """Solve A x = b through the factorization; residuals use a_original.

    b may be a vector or an n x k matrix of right-hand-side columns. Returns
    (x, SolveReport) for a vector and (X, list of SolveReport) for a matrix.
    The passes run once over all columns. A vector keeps vector arithmetic,
    so its solution is bitwise the one a column-at-a-time solver gives; a
    column of a matrix agrees with its vector solve to roundoff.
    refine, a nonnegative int, adds iterative-refinement steps
    (x += solve(b - A x)) to every column at once; each column keeps a step
    only if it lowers that column's residual, and its first step that does
    not is rolled back and ends the column's refinement. A non-finite
    right-hand side raises NonFiniteError, and so does a solution or
    residual that is not finite, naming its columns.
    """
    if not isinstance(factorization, SpaluFactorization):
        raise ConfigError("solve needs a SpaluFactorization")
    check_int("refine", refine, 0)
    n = factorization.n
    csr = _as_csr(a_original, n)
    b_arr = np.asarray(b)
    if b_arr.ndim not in (1, 2) or b_arr.shape[0] != n:
        raise DimensionError(
            f"rhs has shape {b_arr.shape}, expected ({n},) or ({n}, k)")
    if not np.all(np.isfinite(b_arr)):
        raise NonFiniteError("right-hand side holds a NaN or an infinity")
    b_arr = np.ascontiguousarray(
        b_arr, dtype=np.promote_types(b_arr.dtype, factorization.dtype))

    x = _solve_passes(factorization, b_arr)
    res, zero_rhs = residual_with_flag(csr, x, b_arr)
    bad = np.flatnonzero(~(np.isfinite(x).all(axis=0) & np.isfinite(res)))
    if bad.size:
        raise NonFiniteError(
            f"solution or residual not finite in column(s) {bad.tolist()}")
    steps = np.zeros(np.shape(res), dtype=np.int64)
    active = np.ones(np.shape(res), dtype=bool)
    for _ in range(refine):
        candidate = x + _solve_passes(factorization, b_arr - csr @ x)
        cand_res, _ = residual_with_flag(csr, candidate, b_arr)
        active &= cand_res < res
        if not active.any():
            break
        x = np.where(active, candidate, x)
        res = np.where(active, cand_res, res)
        steps += active
    reports = [SolveReport(residual=float(r), refine_steps=int(s),
                           zero_rhs=bool(z))
               for r, s, z in zip(np.atleast_1d(res), np.atleast_1d(steps),
                                  np.atleast_1d(zero_rhs))]
    if b_arr.ndim == 1:
        return x, reports[0]
    return x, reports
