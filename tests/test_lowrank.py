import logging

import numpy as np
import pytest
import scipy.linalg.interpolative as sli

from ndlu.errors import DimensionError, InterpolationBoundError
from ndlu.lowrank import (
    build_hybrid_plan,
    cpqr_id,
    joint_unsymmetric_id,
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
        assert ident.redundant.tolist() == [0, 1, 2, 3]
        assert ident.interp.shape == (0, 4)

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


class TestSampledId:
    def test_is_cpqr_id_of_the_whole_block(self):
        b = decaying_matrix(50, 30, 2.0 ** -np.arange(12, dtype=float), seed=2)
        dense = cpqr_id(b, 1e-8)
        sampled = sampled_id(b, 1e-8)
        assert np.array_equal(dense.skeleton, sampled.skeleton)
        assert np.array_equal(dense.interp, sampled.interp)


class TestJointUnsymmetricId:
    def test_symmetric_input_matches_single_block_skeleton(self):
        b = decaying_matrix(40, 16, 2.0 ** -np.arange(10, dtype=float), seed=21)
        single = cpqr_id(b, 1e-9)
        joint = joint_unsymmetric_id(b, b.T, 1e-9)
        assert np.array_equal(joint.skeleton, single.skeleton)

    def test_zero_outgoing_block(self):
        b = decaying_matrix(30, 12, 2.0 ** -np.arange(6, dtype=float), seed=22)
        single = cpqr_id(b, 1e-9)
        joint = joint_unsymmetric_id(b, np.zeros((12, 30)), 1e-9)
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
        joint = joint_unsymmetric_id(left, right, 1e-9)
        assert len(joint.skeleton) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            joint_unsymmetric_id(np.zeros((5, 3)), np.zeros((5, 3)), 1e-8)

    def test_joint_reconstructs_both_blocks(self):
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
        joint = joint_unsymmetric_id(incoming, outgoing, 1e-10)
        stack = np.vstack([incoming, outgoing.T])
        assert reconstruction_error(joint, stack) <= recon_bound(joint, stack, 1e-10)


def test_the_hybrid_plan_is_gone():
    with pytest.raises(NotImplementedError, match="plan was removed"):
        build_hybrid_plan(np.zeros((4, 2)), np.zeros((3, 2)), 1.0, 3, 0)
