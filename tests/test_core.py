import numpy as np
import pytest
import scipy.linalg as sla

from ndlu.core import Permutation, SparseMatrix, lu_compact, triangular_solve
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


class TestContainers:
    def test_sparse_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_dense(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonFiniteError):
            SparseMatrix.from_dense(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_sparse_sums_duplicates(self):
        a = SparseMatrix.from_coo((2, 2), [0, 0], [0, 0], [1.0, 2.0])
        assert a.nnz == 1
        assert a.to_dense()[0, 0] == 3.0

    def test_permutation_validates(self):
        with pytest.raises(DimensionError):
            Permutation([0, 0, 2])

    def test_permutation_inverse(self):
        p = Permutation([2, 0, 1])
        assert np.array_equal(p.inv, [1, 2, 0])
        v = np.array([10.0, 20.0, 30.0])
        assert np.array_equal(v[p.fwd][p.inv], v)

    def test_complex_supported(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        l, u, p = split_lu(b)
        assert np.linalg.norm(b[p] - l @ u) / np.linalg.norm(b) < 1e-13
