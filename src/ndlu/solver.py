"""Applying a factorization: solve Ax = b with residual reporting.

The factorization is a list of compiled stages (factor.Stage), one per step
of factorize. They apply in two passes: every stage's left action in list
order, each LDL^T stage's block-diagonal D^-1 right after its left action
(it acts only on the positions the stage eliminates, which no later left
action reads or writes), then every stage's right action in reverse list
order. A stage's factors never write where another of its factors reads or
writes (factor.compile_stage refuses a stage whose factors overlap), so
each action is a handful of numpy and scipy calls on the whole stage: a
gather, a product with a block-diagonal triangular inverse, a coupling
product and a scatter. Each pass runs once over the whole right-hand side:
the actions index rows only, and scipy's sparse products on an n x k block
sum each entry in the same order as on a vector, so the passes give every
column of a block bitwise what they give that vector alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SparseMatrix, as_csr, as_numbers, check_int
# The solve makes no triangular solve; the name stays in this namespace
# because perfbench's smoke test checks that tracing restores it here.
from .core import triangular_solve  # noqa: F401
from .errors import ConfigError, DimensionError, NonFiniteError
from .factor import SpaluFactorization


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
# Stage actions on a nested-order vector or block (in place)
# ---------------------------------------------------------------------------


def apply_factor_left(stage, y):
    """Forward action of one stage: y[redundant] -= interp.T y[skeleton] for
    sparsifications; t = L^-1 y[idx][perm], y[nbr] -= coupling t,
    y[idx] = t for eliminations."""
    if stage.kind == "sparsify":
        y[stage.idx] -= stage.pull @ y[stage.nbr]
        return
    t = y[stage.gather]
    t += stage.lower @ t
    y[stage.nbr] -= stage.push @ t
    y[stage.idx] = t


def apply_factor_middle(stage, y):
    """Block-diagonal D^-1 of an LDL^T stage, right after its left action."""
    y[stage.idx] = stage.diag @ y[stage.idx]


def apply_factor_right(stage, y):
    """Backward action of one stage: y[skeleton] -= interp y[redundant] for
    sparsifications; v = y[idx] - coupling y[nbr], then y[idx] = U^-1 v
    (LU) or y[idx][perm] = L^-T v (LDL^T) for eliminations."""
    if stage.kind == "sparsify":
        y[stage.nbr] -= stage.push @ y[stage.idx]
        return
    v = y[stage.idx] - stage.pull @ y[stage.nbr]
    if stage.symmetric:
        v += stage.lower_t @ v
        y[stage.gather] = v
    else:
        y[stage.idx] = stage.diag @ v


def apply_factors(factorization, vec):
    """Both passes on a nested-order vector or n x k block; returns a new
    C-ordered array."""
    y = np.array(vec, dtype=np.promote_types(vec.dtype, factorization.dtype),
                 order="C")
    stages = factorization.stages
    for stage in stages:
        apply_factor_left(stage, y)
        if stage.symmetric:
            apply_factor_middle(stage, y)
    for stage in reversed(stages):
        apply_factor_right(stage, y)
    return y


# ---------------------------------------------------------------------------
# Residuals and the driver
# ---------------------------------------------------------------------------


def residual_with_flag(a, x, b):
    """(residual, zero_rhs) of a vector, or arrays of both over the columns
    of a block: relative unless the column of b is exactly zero, then
    absolute. x and b must hold numbers (core.as_numbers)."""
    csr = as_csr(a)
    x, b = as_numbers("x", x), as_numbers("b", b)
    if (csr.shape[1] != len(x) or csr.shape[0] != len(b)
            or np.shape(x)[1:] != np.shape(b)[1:]):
        raise DimensionError("residual: dimensions do not match")
    r = b - csr @ x
    axis = 0 if r.ndim == 2 else None
    r_norm = np.linalg.norm(r, axis=axis)
    b_norm = np.linalg.norm(b, axis=axis)
    zero = b_norm == 0.0
    res = r_norm / np.where(zero, 1.0, b_norm)
    return (res, zero) if axis == 0 else (float(res), bool(zero))


def _solve_passes(factorization, b):
    """The two passes on b, permuted to nested order and back."""
    order = factorization.order
    x = np.empty_like(b)
    x[order] = apply_factors(factorization, b[order])
    return x


def solve(factorization, a_original, b, refine=0):
    """Solve A x = b through the factorization; residuals use a_original.

    b may be a vector or an n x k matrix of right-hand-side columns. Returns
    (x, SolveReport) for a vector and (X, list of SolveReport) for a matrix.
    The passes run once over all columns and give each column of X bitwise
    what they give that column alone; residual norms, and so refinement
    decisions, may differ from a vector's at roundoff.
    refine, a nonnegative int, adds iterative-refinement steps
    (x += solve(b - A x)) to every column at once; each column keeps a step
    only if it lowers that column's residual, and its first step that does
    not is rolled back and ends the column's refinement. a_original is
    wrapped in a SparseMatrix, unless it is one, and every residual reads
    the wrapper, so core.as_csr scans it once. A right-hand
    side that is not a regular array of booleans, integers, reals or complex
    numbers raises ConfigError, a non-finite one NonFiniteError, and so does
    a solution or residual that is not finite, naming its columns.
    """
    if not isinstance(factorization, SpaluFactorization):
        raise ConfigError("solve needs a SpaluFactorization")
    check_int("refine", refine, 0)
    n = factorization.n
    if not isinstance(a_original, SparseMatrix):
        a_original = SparseMatrix(a_original)
    csr = a_original.csr
    if csr.shape != (n, n):
        raise DimensionError(
            f"matrix is {csr.shape}, factorization covers {n} unknowns")
    b_arr = as_numbers("rhs", b)
    if b_arr.ndim not in (1, 2) or b_arr.shape[0] != n:
        raise DimensionError(
            f"rhs has shape {b_arr.shape}, expected ({n},) or ({n}, k)")
    if not np.all(np.isfinite(b_arr)):
        raise NonFiniteError("right-hand side holds a NaN or an infinity")
    b_arr = np.ascontiguousarray(
        b_arr, dtype=np.promote_types(b_arr.dtype, factorization.dtype))

    x = _solve_passes(factorization, b_arr)
    res, zero_rhs = residual_with_flag(a_original, x, b_arr)
    bad = np.flatnonzero(~(np.isfinite(x).all(axis=0) & np.isfinite(res)))
    if bad.size:
        raise NonFiniteError(
            f"solution or residual not finite in column(s) {bad.tolist()}")
    steps = np.zeros(np.shape(res), dtype=np.int64)
    active = np.ones(np.shape(res), dtype=bool)
    for _ in range(refine):
        candidate = x + _solve_passes(factorization, b_arr - csr @ x)
        cand_res, _ = residual_with_flag(a_original, candidate, b_arr)
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
