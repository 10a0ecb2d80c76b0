"""Applying a factorization: solve Ax = b with residual reporting.

The factor list applies in three passes: every factor's left action in list
order, the block-diagonal middle actions (symmetric mode only), then every
factor's right action in reverse list order. Right-hand sides are processed
one column at a time so a multi-column solve is bitwise identical to the
corresponding single-column solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import as_csr, triangular_solve
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
    apply_seconds: float
    refine_steps: int
    zero_rhs: bool = False


# ---------------------------------------------------------------------------
# Elementary factor actions on a single vector (in place)
# ---------------------------------------------------------------------------


def apply_factor_left(factor, y):
    """Forward action of one factor on a nested-order vector."""
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
    """Backward action of one factor on a nested-order vector."""
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
    """All three passes on a nested-order vector; returns a new array.

    With audit=True also returns a list of locality violations: entries a
    factor changed outside its declared scope (there should be none).
    """
    y = np.array(vec, dtype=np.promote_types(vec.dtype, factorization.dtype),
                 copy=True)
    violations = []

    def run(action, factors):
        for f in factors:
            if not audit:
                action(f, y)
                continue
            before = y.copy()
            action(f, y)
            changed = np.flatnonzero(before != y)
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
    """(residual, zero_rhs): relative unless norm(b) == 0, then absolute."""
    csr = as_csr(a)
    if csr.shape[1] != len(x) or csr.shape[0] != len(b):
        raise DimensionError("residual: dimensions do not match")
    r = b - csr @ x
    rhs_norm = float(np.linalg.norm(b))
    if rhs_norm == 0.0:
        return float(np.linalg.norm(r)), True
    return float(np.linalg.norm(r)) / rhs_norm, False


def solve(factorization, a_original, b, refine=0):
    """Solve A x = b through the factorization; residuals use a_original.

    b may be a vector or a matrix of right-hand-side columns. Returns
    (x, SolveReport) for a vector and (X, list of SolveReport) for a matrix.
    refine, a nonnegative int, adds iterative-refinement steps
    (x += solve(b - A x)); a step that does not improve the residual is
    rolled back. A non-finite right-hand side raises NonFiniteError.
    """
    if not isinstance(factorization, SpaluFactorization):
        raise ConfigError("solve needs a SpaluFactorization")
    if not isinstance(refine, (int, np.integer)) or refine < 0:
        raise ConfigError(f"refine must be a nonnegative int, got {refine!r}")
    n = factorization.n
    csr = _as_csr(a_original, n)
    b_arr = np.asarray(b)
    if b_arr.ndim not in (1, 2) or b_arr.shape[0] != n:
        raise DimensionError(
            f"rhs has shape {b_arr.shape}, expected ({n},) or ({n}, k)")
    if not np.all(np.isfinite(b_arr)):
        raise NonFiniteError("right-hand side holds a NaN or an infinity")
    single = b_arr.ndim == 1
    cols = b_arr[:, None] if single else b_arr
    out_dtype = np.promote_types(cols.dtype, factorization.dtype)
    x = np.empty((n, cols.shape[1]), dtype=out_dtype)
    reports = []
    fwd = factorization.order.fwd

    for j in range(cols.shape[1]):
        t0 = time.perf_counter()
        bj = cols[:, j].astype(out_dtype, copy=False)
        xj = np.empty(n, dtype=out_dtype)
        xj[fwd] = apply_factors(factorization, bj[fwd])
        res, zero_rhs = residual_with_flag(csr, xj, bj)
        steps = 0
        for _ in range(refine):
            correction = np.empty(n, dtype=out_dtype)
            r = bj - csr @ xj
            correction[fwd] = apply_factors(factorization, r[fwd])
            candidate = xj + correction
            cand_res, _ = residual_with_flag(csr, candidate, bj)
            if cand_res < res:
                xj, res = candidate, cand_res
                steps += 1
            else:
                break
        x[:, j] = xj
        reports.append(SolveReport(residual=res,
                                   apply_seconds=time.perf_counter() - t0,
                                   refine_steps=steps, zero_rhs=zero_rhs))
    if single:
        return x[:, 0], reports[0]
    return x, reports
