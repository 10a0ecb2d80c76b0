"""Interpolative decompositions with hybrid randomized row sampling.

A block B of separator coupling is compressed by expressing most of its
columns (the redundant set) as combinations of a few kept columns (the
skeleton): B[:, redundant] ~= B[:, skeleton] @ interp. The skeleton is found
by column-pivoted QR on a short sketch of B that keeps nearby rows verbatim
and compresses distant rows through a Gaussian matrix (build_hybrid_plan),
or on B itself when too few rows are far to shrink it (plan_dense).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.spatial import cKDTree

from .core import triangular_solve
from .errors import DimensionError, InterpolationBoundError

log = logging.getLogger(__name__)

# Gaussian rows drawn beyond the rank guess (Halko, Martinsson & Tropp's
# oversampling parameter p: a small constant makes the sketch capture the
# block's range with high probability).
OVERSAMPLE = 5


@dataclass
class InterpolativeDecomposition:
    """skeleton/redundant partition the column positions 0..n-1; interp has
    one row per skeleton column and one column per redundant column, both in
    ascending-position order."""

    skeleton: np.ndarray
    redundant: np.ndarray
    interp: np.ndarray

    @property
    def num_columns(self):
        return len(self.skeleton) + len(self.redundant)


@dataclass
class SamplingPlan:
    """Which rows of a block to sketch and to how many.

    The sketch of a block B is [B[near]; G @ B[far]]: `near` rows enter it
    verbatim and the `far` rows are mixed down to h Gaussian combinations G,
    drawn from `seed`. The dense plan keeps every row near, with no far row
    and h = 0, so its sketch is B itself.
    """

    near: np.ndarray
    far: np.ndarray
    h: int
    seed: int

    @property
    def num_rows(self):
        return len(self.near) + len(self.far)


def _check_interp_norm(interp, n, k):
    tf = float(np.linalg.norm(interp))
    soft = math.sqrt(float(n) * k * (n - k))
    if tf > 10.0 * soft:
        raise InterpolationBoundError(
            f"interpolation matrix norm {tf:.3e} exceeds 10x the stable bound {soft:.3e}"
        )
    if tf > soft:
        log.warning(
            "interpolation matrix norm %.3e above the stable bound %.3e "
            "(rank %d of %d columns)", tf, soft, k, n
        )


def _sorted_id(n, piv, k, rank_t):
    """Re-express a pivot-ordered ID of n columns with ascending
    skeleton/redundant lists."""
    skeleton_piv = piv[:k]
    redundant_piv = piv[k:]
    row_order = np.argsort(skeleton_piv)
    col_order = np.argsort(redundant_piv)
    interp = rank_t[row_order][:, col_order]
    ident = InterpolativeDecomposition(
        skeleton=np.sort(skeleton_piv).astype(np.int64),
        redundant=np.sort(redundant_piv).astype(np.int64),
        interp=np.ascontiguousarray(interp),
    )
    _check_interp_norm(ident.interp, n, k)
    return ident


def cpqr_id(block, eps):
    """Interpolative decomposition by column-pivoted Householder QR.

    Columns are kept while |R[k,k]| > eps * |R[0,0]|; the interpolation
    matrix solves R1 @ interp = R2 by back substitution, which gives an empty
    (0, n) or (n, 0) one at rank 0 (eps >= 1) or n. Column pivoting
    alone keeps the coefficients small on the blocks the factorization
    compresses (at most 2 in magnitude, the strong rank-revealing bound, as
    a test checks on every problem family); _check_interp_norm guards the
    norm at run time.
    """
    block = np.atleast_2d(np.asarray(block))
    m, n = block.shape
    dtype = block.dtype
    if n == 0 or m == 0 or not np.any(block):
        return _sorted_id(n, np.arange(n), 0, np.zeros((0, n), dtype=dtype))

    r, piv = sla.qr(block, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    cutoff = eps * diag[0]
    below = np.flatnonzero(diag <= cutoff)
    k = int(below[0]) if len(below) else len(diag)
    rank_t = triangular_solve(r[:k, :k], r[:k, k:], lower=False)
    return _sorted_id(n, piv, k, rank_t)


def plan_dense(num_rows):
    """Plan that applies no sampling at all: every row is near."""
    return SamplingPlan(np.arange(num_rows, dtype=np.int64),
                        np.empty(0, dtype=np.int64), 0, 0)


def build_hybrid_plan(row_points, segment_points, radius, rank_guess, seed):
    """Split the (m, 2) row points into near (within `radius` of any
    segment point, kept verbatim) and far (sketched down to rank_guess +
    OVERSAMPLE Gaussian rows). Degrades to no sampling when the far set is
    too small to shrink, and so to a plan of no rows when m = 0."""
    row_points = np.asarray(row_points, dtype=np.float64)
    m = len(row_points)
    tree = cKDTree(np.asarray(segment_points, dtype=np.float64))
    dist, _ = tree.query(row_points)
    near = np.flatnonzero(dist <= radius).astype(np.int64)
    far = np.flatnonzero(dist > radius).astype(np.int64)
    h = min(len(far), rank_guess + OVERSAMPLE)
    if len(far) == 0 or h >= len(far):
        return plan_dense(m)
    return SamplingPlan(near, far, h, seed)


def _gaussian_sketch(rng, h, num_far, dtype):
    scale = 1.0 / math.sqrt(h)
    if np.issubdtype(dtype, np.complexfloating):
        g = rng.standard_normal((h, num_far)) + 1j * rng.standard_normal((h, num_far))
        return (g * (scale / math.sqrt(2.0))).astype(dtype)
    return (rng.standard_normal((h, num_far)) * scale).astype(dtype)


def _sketched_id(halves, plan, eps):
    """ID of the row stack of the halves' sketches under one plan.

    Each half contributes its near rows and, when the plan sketches
    (h > 0), its own Gaussian sketch of its far rows; the sketches are drawn
    from one generator in half order.
    """
    if plan.num_rows != halves[0].shape[0]:
        raise DimensionError(
            f"plan covers {plan.num_rows} rows, block has {halves[0].shape[0]}"
        )
    rng = np.random.default_rng(plan.seed)
    dtype = np.result_type(*halves)
    pieces = []
    for half in halves:
        pieces.append(half[plan.near].astype(dtype, copy=False))
        if plan.h:
            sketch = _gaussian_sketch(rng, plan.h, len(plan.far), dtype)
            pieces.append(sketch @ half[plan.far])
    return cpqr_id(np.vstack(pieces), eps)


def sampled_id(block, plan, eps):
    """Interpolative decomposition of `block` via the plan's sketch.

    The skeleton is chosen from the sketch Y = [block[near]; G @ block[far]]
    and the interpolation matrix is taken from the sketch's QR; both are then
    used against the full block.
    """
    return _sketched_id([np.atleast_2d(np.asarray(block))], plan, eps)


def joint_unsymmetric_id(coupling_in, coupling_out, plan, eps):
    """One ID serving both sides of an unsymmetric coupling.

    coupling_in is (neighbors x segment), coupling_out is (segment x
    neighbors); the stack [coupling_in; coupling_out^T] is decomposed so the
    same skeleton columns work for rows and columns of the segment. Sampling
    is applied to each half separately with independent sketches.
    """
    coupling_in = np.atleast_2d(np.asarray(coupling_in))
    coupling_out = np.atleast_2d(np.asarray(coupling_out))
    if coupling_out.shape != coupling_in.shape[::-1]:
        raise DimensionError(
            f"coupling blocks disagree: {coupling_in.shape} vs {coupling_out.shape}"
        )
    return _sketched_id([coupling_in, coupling_out.T], plan, eps)
