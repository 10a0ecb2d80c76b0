import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from ndlu.core import (SparseMatrix, lu_compact, triangular_inverse,
                       triangular_solve)
from ndlu.errors import DimensionError, NonFiniteError, SingularBlockError


def split_lu(block, level=None, segment=None):
    """(l, u, perm) unpacked from lu_compact: block[perm] = l @ u."""
    lu, _, perm = lu_compact(block, level=level, segment=segment)
    l = np.tril(lu, -1)
    np.fill_diagonal(l, 1.0)
    return l, np.triu(lu), perm


class TestDenseLU:
    def test_identity(self):
        l, u, p = split_lu(np.eye(3))
        assert np.array_equal(l, np.eye(3))
        assert np.array_equal(u, np.eye(3))
        assert np.array_equal(p, [0, 1, 2])

    def test_pivot_swap(self):
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        l, u, p = split_lu(b)
        assert np.allclose(b[p], l @ u)
        assert not np.array_equal(p, [0, 1])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((20, 20))
        l, u, p = split_lu(b)
        err = np.linalg.norm(b[p] - l @ u) / np.linalg.norm(b)
        assert err < 1e-13

    @pytest.mark.parametrize("n", [1, 17, 64, 256])
    def test_reconstruction_up_to_256(self, n):
        rng = np.random.default_rng(n)
        b = rng.standard_normal((n, n))
        l, u, p = split_lu(b)
        err = np.linalg.norm(b[p] - l @ u) / np.linalg.norm(b)
        assert err <= 1e-12

    def test_singular_raises_with_location(self):
        b = np.zeros((3, 3))
        with pytest.raises(SingularBlockError) as ei:
            split_lu(b, level=4, segment=17)
        assert ei.value.level == 4
        assert ei.value.segment == 17

    def test_compact_matches_split(self):
        # scipy's own LU of the same block is the oracle: b = P @ L @ U
        rng = np.random.default_rng(2)
        b = rng.standard_normal((12, 12))
        l, u, p = split_lu(b)
        pmat, l_ref, u_ref = sla.lu(b)
        assert np.array_equal(p, np.argmax(pmat, axis=0))
        assert np.allclose(l, l_ref)
        assert np.allclose(u, u_ref)


class TestTriangularSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(triangular_solve(np.eye(3), b), b)

    def test_lower_2x2(self):
        t = np.array([[2.0, 0.0], [1.0, 1.0]])
        x = triangular_solve(t, np.array([2.0, 2.0]), lower=True)
        assert np.allclose(x, [1.0, 1.0])

    def test_upper_random_residual(self):
        rng = np.random.default_rng(9)
        t = np.triu(rng.standard_normal((30, 30))) + 5 * np.eye(30)
        b = rng.standard_normal(30)
        x = triangular_solve(t, b, lower=False)
        assert np.linalg.norm(t @ x - b) / np.linalg.norm(b) < 1e-13

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            triangular_solve(np.eye(3), np.ones(4))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("unit_diag", [False, True])
    @pytest.mark.parametrize("lower", [True, False])
    def test_bitwise_equal_to_scipy(self, lower, unit_diag, trans, order, dtype):
        rng = np.random.default_rng(3)

        def sample(*shape):
            out = rng.standard_normal(shape)
            if dtype is np.complex128:
                out = out + 1j * rng.standard_normal(shape)
            return out

        t = np.array(sample(20, 20) + 4 * np.eye(20), order=order)
        for b in (sample(20), sample(20, 3), np.asfortranarray(sample(20, 3)),
                  sample(20, 0)):
            x = triangular_solve(t, b, lower=lower, unit_diag=unit_diag,
                                 trans=trans)
            ref = sla.solve_triangular(t, b, lower=lower,
                                       unit_diagonal=unit_diag,
                                       trans=int(trans))
            assert x.shape == ref.shape and x.dtype == ref.dtype
            assert x.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("b_dtype", [np.float64, np.complex128, np.int64])
    def test_empty_cases_keep_their_shape_and_dtype(self, b_dtype):
        empty = triangular_solve(np.eye(0), np.ones((0, 2), dtype=b_dtype))
        assert empty.shape == (0, 2) and empty.dtype == b_dtype
        no_cols = triangular_solve(np.eye(3), np.ones((3, 0), dtype=b_dtype))
        ref = sla.solve_triangular(np.eye(3), np.ones((3, 0), dtype=b_dtype))
        assert no_cols.shape == (3, 0) and no_cols.dtype == ref.dtype

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("lower", [True, False])
    def test_zero_on_the_diagonal_raises_singular_block_error(self, lower, order):
        t = np.array(np.tril(np.ones((4, 4))) if lower else np.triu(np.ones((4, 4))),
                     order=order)
        t[2, 2] = 0.0
        with pytest.raises(SingularBlockError, match="position 2"):
            triangular_solve(t, np.ones(4), lower=lower)
        # a unit diagonal is not read
        x = triangular_solve(t, np.ones(4), lower=lower, unit_diag=True)
        assert np.all(np.isfinite(x))


class TestTriangularInverse:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("unit_diag", [False, True])
    @pytest.mark.parametrize("lower", [True, False])
    def test_inverts_one_triangle_and_keeps_the_rest(self, lower, unit_diag,
                                                     order, dtype):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((12, 12)) + 4 * np.eye(12)
        if dtype is np.complex128:
            t = t + 1j * rng.standard_normal((12, 12))
        t = np.array(t, order=order)
        tri = np.tril(t) if lower else np.triu(t)
        if unit_diag:
            np.fill_diagonal(tri, 1.0)
        inv = triangular_inverse(t, lower=lower, unit_diag=unit_diag)
        assert inv.dtype == t.dtype and inv.flags.f_contiguous
        part = np.tril(inv) if lower else np.triu(inv)
        if unit_diag:
            np.fill_diagonal(part, 1.0)
        assert np.allclose(part @ tri, np.eye(12), atol=1e-13)
        # the other triangle, and a unit diagonal, keep t's entries
        keep = ~np.tri(12, 12, -1 if unit_diag else 0, dtype=bool)
        keep = keep if lower else keep.T
        assert np.array_equal(inv[keep], t[keep])

    def test_both_triangles_of_a_compact_lu(self):
        b = np.random.default_rng(8).standard_normal((10, 10))
        lu, _, perm = lu_compact(b)
        inv = triangular_inverse(triangular_inverse(lu, unit_diag=True),
                                 lower=False)
        l_inv = np.tril(inv, -1) + np.eye(10)
        assert np.allclose(np.triu(inv) @ l_inv @ b[perm], np.eye(10))

    def test_empty_block_and_zero_diagonal(self):
        assert triangular_inverse(np.eye(0)).shape == (0, 0)
        t = np.tril(np.ones((4, 4)))
        t[1, 1] = 0.0
        with pytest.raises(SingularBlockError, match="position 1"):
            triangular_inverse(t)
        # a unit diagonal is not read
        assert np.all(np.isfinite(triangular_inverse(t, unit_diag=True)))


class TestContainers:
    def test_sparse_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SparseMatrix(sp.csr_matrix([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonFiniteError):
            SparseMatrix(sp.csr_matrix([[1.0, np.nan], [0.0, 1.0]]))

    def test_sparse_sums_duplicates(self):
        a = SparseMatrix(sp.coo_matrix(([1.0, 2.0], ([0, 0], [0, 0])), shape=(2, 2)))
        assert a.csr.nnz == 1
        assert a.csr[0, 0] == 3.0

    def test_complex_supported(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        l, u, p = split_lu(b)
        assert np.linalg.norm(b[p] - l @ u) / np.linalg.norm(b) < 1e-13


@pytest.mark.parametrize("call,message", [
    (lambda: SparseMatrix(np.eye(3)), "scipy sparse matrix"),
    (lambda: lu_compact(np.ones((2, 3))), "square block"),
    (lambda: triangular_inverse(np.ones((2, 3))), "square block"),
], ids=["dense-sparse-matrix", "lu-not-square", "inverse-not-square"])
def test_core_input_checks_raise_dimension_error(call, message):
    with pytest.raises(DimensionError, match=message):
        call()
