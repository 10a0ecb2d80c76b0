import logging

import numpy as np
import pytest
import scipy.linalg.interpolative as sli

from ndlu.errors import DimensionError, InterpolationBoundError
from ndlu.lowrank import (
    OVERSAMPLE,
    SamplingPlan,
    build_hybrid_plan,
    cpqr_id,
    joint_unsymmetric_id,
    plan_dense,
    sampled_id,
)


def reconstruction_error(ident, block):
    """Frobenius error of interpolating the redundant columns."""
    approx = block[:, ident.skeleton] @ ident.interp
    return float(np.linalg.norm(block[:, ident.redundant] - approx))


def recon_bound(ident, block, eps):
    """The library-wide reconstruction promise for an ID of `block`."""
    c = 10.0 * (1.0 + np.linalg.norm(ident.interp))
    return c * eps * np.linalg.norm(block)


def all_far(num_rows, rank_guess, seed):
    """The plan build_hybrid_plan makes when every row is far: all of them
    mixed into rank_guess + OVERSAMPLE Gaussian rows."""
    return SamplingPlan(np.empty(0, dtype=np.int64),
                        np.arange(num_rows, dtype=np.int64),
                        rank_guess + OVERSAMPLE, seed)


def decaying_matrix(m, n, sigma, seed):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, len(sigma))))
    v, _ = np.linalg.qr(rng.standard_normal((n, len(sigma))))
    return (u * sigma) @ v.T


def kahan(n, theta):
    """Kahan's matrix diag(s^i) (I - c * strict_upper_ones), s = sin(theta),
    c = cos(theta), plus 25 u diag(n, ..., 1) with u the unit roundoff, so
    that column pivoting keeps the given order. Pivoted QR then misses how
    close the trailing columns are to the span of the leading ones, and the
    interpolation coefficients grow with n."""
    s, c = np.sin(theta), np.cos(theta)
    u = np.finfo(np.float64).eps / 2
    return (np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
            + 25 * u * np.diag(np.arange(n, 0, -1.0)))


class TestCpqrId:
    def test_zero_matrix(self):
        ident = cpqr_id(np.zeros((6, 5)), 1e-10)
        assert len(ident.skeleton) == 0
        assert ident.redundant.tolist() == [0, 1, 2, 3, 4]
        assert ident.interp.shape == (0, 5)

    def test_orthogonal_columns_full_rank(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 8)))
        ident = cpqr_id(q, 1e-8)
        assert len(ident.skeleton) == 8
        assert ident.interp.shape == (8, 0)
        assert len(ident.redundant) == 0

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(30)
        v = rng.standard_normal(12)
        b = np.outer(u, v)
        ident = cpqr_id(b, 1e-10)
        assert len(ident.skeleton) == 1
        assert reconstruction_error(ident, b) < 1e-10 * np.linalg.norm(b)

    def test_partition_and_sorted_indices(self):
        b = decaying_matrix(40, 25, 2.0 ** -np.arange(25), seed=1)
        ident = cpqr_id(b, 1e-6)
        both = np.concatenate([ident.skeleton, ident.redundant])
        assert sorted(both.tolist()) == list(range(25))
        assert np.all(np.diff(ident.skeleton) > 0)
        assert np.all(np.diff(ident.redundant) > 0)
        assert ident.interp.shape == (ident.skeleton.size,
                                      ident.redundant.size)

    def test_geometric_decay_rank(self):
        sigma = 2.0 ** -np.arange(40, dtype=float)
        b = decaying_matrix(60, 40, sigma, seed=7)
        ident = cpqr_id(b, 1e-8)
        # singular values cross 1e-8 at index 27; pivoted-QR diagonals track
        # them to within a small slack factor
        assert abs(len(ident.skeleton) - 27) <= 2
        assert reconstruction_error(ident, b) <= recon_bound(ident, b, 1e-8)

    def test_reconstruction_invariant_many_random(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            m = int(rng.integers(5, 60))
            n = int(rng.integers(2, 40))
            r = int(rng.integers(1, min(m, n) + 1))
            sigma = np.exp(-rng.uniform(0, 1) * np.arange(r))
            b = decaying_matrix(m, n, sigma, seed=trial)
            eps = 10.0 ** -rng.integers(4, 13)
            ident = cpqr_id(b, eps)
            assert reconstruction_error(ident, b) <= recon_bound(ident, b, eps)

    def test_eps_one_drops_everything_but_pivot(self):
        b = np.eye(4)
        ident = cpqr_id(b, 1.0)
        assert len(ident.skeleton) == 0

    def test_complex_input(self):
        rng = np.random.default_rng(5)
        b = (rng.standard_normal((20, 10)) + 1j * rng.standard_normal((20, 10)))
        b[:, 5:] = b[:, :5] @ (rng.standard_normal((5, 5)) * 0.1)
        ident = cpqr_id(b, 1e-10)
        assert len(ident.skeleton) == 5
        assert reconstruction_error(ident, b) <= recon_bound(ident, b, 1e-10)


    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_rank_agrees_with_scipy_interpolative(self, dtype):
        # scipy's deterministic ID (pivoted QR, relative precision eps) is
        # an independent implementation of the same rank rule
        rng = np.random.default_rng(11)
        for _ in range(12):
            m, n = int(rng.integers(20, 80)), int(rng.integers(10, 60))
            r = int(rng.integers(1, min(m, n) // 2 + 1))
            for noise in (1e-3, 1e-6, 1e-9):
                b = (rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
                     + noise * rng.standard_normal((m, n))).astype(dtype)
                if dtype == np.complex128:
                    b += 1j * rng.standard_normal((m, r)) @ \
                        rng.standard_normal((r, n))
                for eps in (1e-2, 1e-5, 1e-8):
                    oracle, _, _ = sli.interp_decomp(b, eps, rand=False)
                    assert abs(len(cpqr_id(b, eps).skeleton) - oracle) <= 1

    def test_interpolation_above_the_stable_bound_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ndlu.lowrank"):
            ident = cpqr_id(kahan(6, 0.3), 1e-2)
        n, k = 6, len(ident.skeleton)
        bound = np.sqrt(n * k * (n - k))
        assert bound < np.linalg.norm(ident.interp) <= 10 * bound  # 11.7 > 6.9
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "above the stable bound" in caplog.records[0].getMessage()

    def test_interpolation_above_ten_times_the_bound_raises(self):
        # the norm reaches 4.1e6 against a bound of 61
        with pytest.raises(InterpolationBoundError, match="exceeds 10x"):
            cpqr_id(kahan(30, 0.6), 1e-6)


class TestPlans:
    def test_dense_plan(self):
        plan = plan_dense(7)
        assert plan.near.tolist() == list(range(7))
        assert len(plan.far) == 0 and plan.h == 0
        assert plan.num_rows == 7

    def test_gaussian_plan_degrades_when_tiny(self):
        # with every row far the hybrid plan is the pure Gaussian sketch,
        # unless that sketch would not be shorter than the block
        seg = np.zeros((3, 2))
        far_rows = np.full((100, 2), 9.0)
        assert build_hybrid_plan(far_rows[:6], seg, radius=2.0, rank_guess=10,
                                 seed=0).h == 0
        plan = build_hybrid_plan(far_rows, seg, radius=2.0, rank_guess=10,
                                 seed=3)
        expected = all_far(100, rank_guess=10, seed=3)
        assert plan.h == expected.h == 15
        assert len(plan.near) == 0 and plan.seed == expected.seed
        assert plan.far.tolist() == expected.far.tolist() == list(range(100))

    def test_hybrid_split_by_distance(self):
        # segment on the line y=0; rows: a touching parallel line y=1 plus a
        # distant cluster at y=10
        seg = np.column_stack([np.arange(8.0), np.zeros(8)])
        near_rows = np.column_stack([np.arange(8.0), np.ones(8)])
        far_rows = np.column_stack([np.arange(20.0), np.full(20, 10.0)])
        rows = np.vstack([near_rows, far_rows])
        plan = build_hybrid_plan(rows, seg, radius=2.0, rank_guess=4, seed=9)
        assert plan.near.tolist() == list(range(8))
        assert plan.far.tolist() == list(range(8, 28))
        assert plan.h == 9

    def test_all_near_degrades_to_none(self):
        seg = np.zeros((3, 2))
        rows = np.full((5, 2), 0.1)
        plan = build_hybrid_plan(rows, seg, radius=2.0, rank_guess=2, seed=0)
        assert plan.h == 0 and plan.near.tolist() == list(range(5))

    def test_small_far_set_degrades(self):
        seg = np.zeros((3, 2))
        rows = np.vstack([np.full((5, 2), 0.1), np.full((3, 2), 9.0)])
        plan = build_hybrid_plan(rows, seg, radius=2.0, rank_guess=4, seed=0)
        assert plan.h == 0 and plan.near.tolist() == list(range(8))


class TestSampledId:
    def test_none_plan_matches_dense_exactly(self):
        b = decaying_matrix(50, 30, 2.0 ** -np.arange(12, dtype=float), seed=2)
        dense = cpqr_id(b, 1e-8)
        sampled = sampled_id(b, plan_dense(50), 1e-8)
        assert np.array_equal(dense.skeleton, sampled.skeleton)
        assert np.array_equal(dense.interp, sampled.interp)

    def test_seed_determinism(self):
        b = decaying_matrix(120, 30, 2.0 ** -np.arange(8, dtype=float), seed=3)
        plan = all_far(120, rank_guess=12, seed=77)
        a1 = sampled_id(b, plan, 1e-8)
        a2 = sampled_id(b, plan, 1e-8)
        assert np.array_equal(a1.skeleton, a2.skeleton)
        assert np.array_equal(a1.interp, a2.interp)

    def test_rank3_monte_carlo(self):
        # 200x40 rank-3 blocks, mostly far rows: the sketch must recover the
        # rank and meet the reconstruction bound in >= 999/1000 trials
        rng = np.random.default_rng(123)
        base = decaying_matrix(200, 40, np.array([1.0, 0.5, 0.25]), seed=11)
        failures = 0
        eps = 1e-8
        for trial in range(1000):
            plan = all_far(200, rank_guess=3, seed=trial)
            ident = sampled_id(base, plan, eps)
            ok = (
                abs(len(ident.skeleton) - 3) <= 2
                and reconstruction_error(ident, base) <= 10.0 * eps * np.linalg.norm(base)
            )
            failures += not ok
        assert failures <= 1

    def test_decay_matches_dense_rank(self):
        sigma = 2.0 ** -np.arange(40, dtype=float)
        b = decaying_matrix(300, 40, sigma, seed=5)
        dense = cpqr_id(b, 1e-8)
        plan = all_far(300, rank_guess=len(dense.skeleton), seed=1)
        sampled = sampled_id(b, plan, 1e-8)
        assert abs(len(sampled.skeleton) - len(dense.skeleton)) <= 2

    def test_hybrid_plan_end_to_end(self):
        rng = np.random.default_rng(8)
        seg_pts = np.column_stack([np.arange(10.0), np.zeros(10)])
        row_pts = np.vstack(
            [
                np.column_stack([np.arange(10.0), np.ones(10)]),
                rng.uniform(20, 30, (150, 2)),
            ]
        )
        dist = np.hypot(
            row_pts[:, 0][:, None] - seg_pts[:, 0], row_pts[:, 1][:, None] - seg_pts[:, 1]
        )
        b = 1.0 / (1.0 + dist)
        plan = build_hybrid_plan(row_pts, seg_pts, radius=2.0, rank_guess=10, seed=4)
        assert plan.h > 0 and len(plan.near) == 10
        ident = sampled_id(b, plan, 1e-10)
        assert reconstruction_error(ident, b) <= recon_bound(ident, b, 1e-10) + 1e-12

    def test_sampling_consistency_hundred_trials(self):
        # well-separated spectrum: sketched rank within pm 2 of dense rank
        sigma = np.concatenate([np.ones(6), np.full(30, 1e-4)])
        b = decaying_matrix(150, 36, sigma, seed=13)
        dense = cpqr_id(b, 1e-3)
        for seed in range(100):
            plan = all_far(150, rank_guess=len(dense.skeleton), seed=seed)
            ident = sampled_id(b, plan, 1e-3)
            assert abs(len(ident.skeleton) - len(dense.skeleton)) <= 2


class TestJointUnsymmetricId:
    def test_symmetric_input_matches_single_block_skeleton(self):
        b = decaying_matrix(40, 16, 2.0 ** -np.arange(10, dtype=float), seed=21)
        single = cpqr_id(b, 1e-9)
        joint = joint_unsymmetric_id(b, b.T, plan_dense(40), 1e-9)
        assert np.array_equal(joint.skeleton, single.skeleton)

    def test_zero_outgoing_block(self):
        b = decaying_matrix(30, 12, 2.0 ** -np.arange(6, dtype=float), seed=22)
        single = cpqr_id(b, 1e-9)
        joint = joint_unsymmetric_id(b, np.zeros((12, 30)), plan_dense(30), 1e-9)
        assert np.array_equal(joint.skeleton, single.skeleton)

    def test_joint_rank_by_svd_oracle(self):
        rng = np.random.default_rng(31)
        seg = 8
        left = np.outer(rng.standard_normal(50), rng.standard_normal(seg))
        left += np.outer(rng.standard_normal(50), rng.standard_normal(seg))
        right = np.outer(rng.standard_normal(seg), rng.standard_normal(50))
        right += np.outer(rng.standard_normal(seg), rng.standard_normal(50))
        stack = np.vstack([left, right.T])
        svd_rank = int((np.linalg.svd(stack, compute_uv=False) > 1e-9).sum())
        assert svd_rank == 4
        joint = joint_unsymmetric_id(left, right, plan_dense(50), 1e-9)
        assert len(joint.skeleton) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            joint_unsymmetric_id(np.zeros((5, 3)), np.zeros((5, 3)), plan_dense(5), 1e-8)

    def test_sampled_joint_reconstructs_both_blocks(self):
        rng = np.random.default_rng(17)
        seg_pts = np.column_stack([np.arange(12.0), np.zeros(12)])
        row_pts = np.vstack(
            [np.column_stack([np.arange(12.0), np.ones(12)]), rng.uniform(15, 25, (120, 2))]
        )
        dist = np.hypot(
            row_pts[:, 0][:, None] - seg_pts[:, 0], row_pts[:, 1][:, None] - seg_pts[:, 1]
        )
        incoming = 1.0 / (1.0 + dist)
        outgoing = (1.0 / (2.0 + dist)).T
        plan = build_hybrid_plan(row_pts, seg_pts, radius=2.0, rank_guess=12, seed=6)
        joint = joint_unsymmetric_id(incoming, outgoing, plan, 1e-10)
        stack = np.vstack([incoming, outgoing.T])
        assert reconstruction_error(joint, stack) <= recon_bound(joint, stack, 1e-10)


def test_plan_that_does_not_cover_the_block_is_rejected():
    with pytest.raises(DimensionError, match="plan covers 5 rows, block has 4"):
        sampled_id(np.ones((4, 3)), plan_dense(5), 1e-4)
