"""Factorization and solve: exactness, accuracy under compression,
determinism, the sparsify drop bound, the Schur store's ownership check at
every pack and edge-case sizes."""

import dataclasses
import importlib.util
import itertools
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.io
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ndlu import (ConfigError, DimensionError, NdluError, NonFiniteError,
                  SingularBlockError, SparseMatrix, assembly, core,
                  dissection, factor, lowrank, solver)
from ndlu.dissection import JUNCTION, REGULAR
from ndlu.factor import FactorOptions

SMALL_N = 1500
FAMILIES = (
    "laplace-contrast:rho=100,seed=1",
    "helmholtz:k=5",
    "helmholtz-poly:k=20",
    "laplace-aniso:d12=1,d21=0",
)
# Small enough a floor that a few segments at n=1.5k compress.
COMPRESS = FactorOptions(min_sparsify_size=16)


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.fixture(scope="module", params=FAMILIES)
def problem(request):
    p = assembly.build_problem(request.param, SMALL_N)
    return p, dissection.build_dissection(p.matrix, p.coords)


def _columns(p, count=3, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([p.rhs, rng.standard_normal((len(p.rhs), count))])


def _worst_residual(fac, matrix, b):
    _, reports = solver.solve(fac, matrix, b)
    return max(r.residual for r in reports)


def _exact(n):
    return FactorOptions(min_sparsify_size=n + 1)


def test_exact_path_solves_to_roundoff(problem):
    p, tree = problem
    fac = factor.factorize(p.matrix, tree, 1e-4, _exact(p.n))
    assert not any(f.kind == "sparsify" and f.interp.size for f in fac.factors)
    assert _worst_residual(fac, p.matrix, _columns(p)) <= 1e-12


def test_exact_path_at_benchmark_scale_refines_to_roundoff_in_one_step():
    # n = 16157, no segment sparsified; unrefined the columns read 8e-13 to
    # 4e-12, one refinement step brings them to 3e-15 to 1.4e-14
    p = assembly.build_problem("helmholtz-poly:k=20", 16384)
    tree = dissection.build_dissection(p.matrix, p.coords)
    fac = factor.factorize(p.matrix, tree, 1e-4, _exact(p.n))
    _, reports = solver.solve(fac, p.matrix, _columns(p), refine=1)
    assert max(r.residual for r in reports) <= 1e-13


def _dense_flops(f):
    """Floating-point operations of one elimination's dense kernels by
    perfbench's count (measure._dense_flops): the factorization, the
    triangular solves and the Schur product, without the triangular
    inverse."""
    if f.kind == "sparsify":
        return 0
    k, m = f.idx.size, f.nbr.size
    if isinstance(f, factor.SymEliminationFactor):
        return k ** 3 // 3 + 3 * k * k * m + 2 * m * m * k
    return 2 * k ** 3 // 3 + 2 * k * k * m + 2 * m * m * k


def test_factor_entries_and_work_per_unknown_stay_flat_as_n_grows():
    # The paper's O(N): at n = 1058, 4050 and 16562 the factor holds 48.1,
    # 49.9 and 53.0 entries per unknown and the kernels do 5508, 5933 and
    # 6607 flops per unknown, so each 4x step in n raises them by 1.037 and
    # 1.062, and 1.077 and 1.114; the largest skeleton kept is 23, 17, 18.
    per_n = []
    for target in (1024, 4096, 16384):
        p = assembly.build_problem("laplace-contrast:rho=100,seed=1", target)
        tree = dissection.build_dissection(p.matrix, p.coords)
        fac = factor.factorize(p.matrix, tree, 1e-4, COMPRESS)
        flops = sum(_dense_flops(f) for f in fac.factors)
        per_n.append((fac.factor_nnz / p.n, flops / p.n))
        assert max(s["largest_skeleton"] for s in fac.level_stats) <= 32
    for (nnz0, flops0), (nnz1, flops1) in zip(per_n, per_n[1:]):
        assert nnz1 / nnz0 <= 1.10
        assert flops1 / flops0 <= 1.20


def _unsymmetric_copy(p):
    """p's matrix with one extra entry that breaks structural symmetry."""
    a = p.matrix.csr.tolil()
    assert a[0, 5] == 0 and a[5, 0] == 0
    a[0, 5] = 0.3
    return sp.csr_matrix(a), p.coords


def _disconnected_copy(p):
    """Two copies of p's matrix side by side, sharing no vertex or edge."""
    a = sp.block_diag([p.matrix.csr] * 2, format="csr")
    return a, np.vstack([p.coords, p.coords + [5.0, 0.0]])


@pytest.mark.parametrize("build", [_unsymmetric_copy, _disconnected_copy])
def test_exact_path_solves_matrix_market_input(build, tmp_path):
    a, coords = build(assembly.build_problem(FAMILIES[0], 400))
    scipy.io.mmwrite(tmp_path / "a.mtx", a)
    np.savetxt(tmp_path / "a.xy", coords, fmt="%.17g")
    p = assembly.read_matrix_market(tmp_path / "a.mtx", tmp_path / "a.xy")
    assert (p.matrix.csr != a).nnz == 0
    tree = dissection.build_dissection(p.matrix, p.coords)
    fac = factor.factorize(p.matrix, tree, 1e-4, _exact(p.n))
    assert fac.symmetric == (build is _disconnected_copy)
    assert _worst_residual(fac, p.matrix, _columns(p)) <= 1e-12


def _one_way_couplings(p, tree):
    """p's matrix without the separator -> leaf entries of its first
    nonempty leaf and the leaf -> separator entries of its second, and
    those two leaves' spans."""
    spans = [leaf.span for leaf in tree.leaves if leaf.span[1] > leaf.span[0]]
    (s1, e1), (s2, e2) = spans[:2]
    in_leaf = np.zeros(p.n, dtype=bool)
    for s, e in spans:
        in_leaf[s:e] = True
    coo = p.matrix.csr.tocoo()
    r, c = tree.position[coo.row], tree.position[coo.col]
    drop = (((c >= s1) & (c < e1) & ~in_leaf[r])
            | ((r >= s2) & (r < e2) & ~in_leaf[c]))
    keep = ~drop
    a = sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])),
                      shape=coo.shape)
    return a, [(s1, e1), (s2, e2)]


@pytest.mark.parametrize("family", [FAMILIES[3], FAMILIES[0]])
def test_leaf_fronts_follow_couplings_in_either_direction(family):
    # one leaf couples to its separators through its rows only, another
    # through its columns only; each front must still hold every outside
    # position the leaf's stored entries touch
    p = assembly.build_problem(family, SMALL_N)
    tree = dissection.build_dissection(p.matrix, p.coords)
    a, spans = _one_way_couplings(p, tree)
    # the dissection reads the symmetrized pattern, which is unchanged
    assert np.array_equal(dissection.build_dissection(a, p.coords).order,
                          tree.order)
    fac = factor.factorize(a, tree, 1e-4, _exact(p.n))
    nested = a[tree.order][:, tree.order]
    for (s, e), through_rows in zip(spans, (True, False)):
        out_of_rows = np.setdiff1d(nested[s:e].indices, np.arange(s, e))
        out_of_cols = np.setdiff1d(nested[:, s:e].tocoo().row,
                                   np.arange(s, e))
        assert (out_of_rows.size > 0, out_of_cols.size > 0) == \
            (through_rows, not through_rows)
        leaf, = [f for f in fac.factors
                 if f.tag == "interior" and f.idx[0] == s]
        assert np.array_equal(leaf.idx, np.arange(s, e))
        assert np.array_equal(leaf.nbr, np.union1d(out_of_rows, out_of_cols))
    b = _columns(p)
    assert _worst_residual(fac, a, b) <= 1e-12


def _diagonal_in_two_halves(a):
    """a as a CSR that stores each diagonal entry twice, as two halves whose
    sum is the entry, with column indices sorted within each row."""
    coo = a.tocoo()
    n = a.shape[0]
    rows = np.concatenate([coo.row, np.arange(n)])
    cols = np.concatenate([coo.col, np.arange(n)])
    vals = np.concatenate([np.where(coo.row == coo.col, coo.data / 2, coo.data),
                           a.diagonal() / 2])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=a.shape)


def test_duplicate_entries_are_summed_and_the_callers_csr_is_kept():
    p = assembly.build_problem("laplace-contrast:rho=1", 600)
    dup = _diagonal_in_two_halves(p.matrix.csr)
    assert not dup.has_canonical_format
    kept = [arr.copy() for arr in (dup.data, dup.indices, dup.indptr)]
    tree = dissection.build_dissection(dup, p.coords)
    fac = factor.factorize(dup, tree, 1e-4, _exact(p.n))
    x, _ = solver.solve(fac, dup, p.rhs)
    residual = p.rhs - p.matrix.csr @ x
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(p.rhs)
    for before, after in zip(kept, (dup.data, dup.indices, dup.indptr)):
        assert np.array_equal(before, after)


def _complex_symmetric_file(tmp_path):
    """A complex symmetric matrix stored as its lower triangle under a
    'symmetric' Matrix Market header."""
    p = assembly.build_problem(FAMILIES[0], 400)
    lower = sp.tril(p.matrix.csr * (1 + 0.5j)).tocoo()
    with open(tmp_path / "a.mtx", "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate complex symmetric\n")
        fh.write(f"{p.n} {p.n} {lower.nnz}\n")
        for i, j, v in zip(lower.row, lower.col, lower.data):
            fh.write(f"{i + 1} {j + 1} {v.real:.17g} {v.imag:.17g}\n")
    np.savetxt(tmp_path / "a.xy", p.coords, fmt="%.17g")
    return assembly.read_matrix_market(tmp_path / "a.mtx", tmp_path / "a.xy")


def _nearly_symmetric_problem(tmp_path):
    return assembly.build_problem("laplace-aniso:d12=1,d21=1.000001", 400)


@pytest.mark.parametrize("build", [_complex_symmetric_file,
                                   _nearly_symmetric_problem])
def test_matrices_that_are_not_real_symmetric_take_the_lu_path(build,
                                                               tmp_path):
    # both are symmetric to 1e-5, so a loose check would call them symmetric
    p = build(tmp_path)
    a = p.matrix.csr
    assert abs(a - a.T).max() <= 1e-5 * abs(a).max()
    assert not factor.is_symmetric(p.matrix)
    tree = dissection.build_dissection(p.matrix, p.coords)
    fac = factor.factorize(p.matrix, tree, 1e-4, _exact(p.n))
    assert not fac.symmetric
    assert all(isinstance(f, factor.EliminationFactor) for f in fac.factors
               if f.kind != "sparsify")
    assert _worst_residual(fac, p.matrix, _columns(p)) <= 1e-12


def test_one_large_symmetric_pair_does_not_hide_unsymmetry():
    p = assembly.build_problem("laplace-aniso:d12=1,d21=0", SMALL_N)
    a = p.matrix.csr.tolil()
    a[419, 364] = a[364, 419] = 1e15
    a = SparseMatrix(a.tocsr())
    assert not factor.is_symmetric(a)
    tree = dissection.build_dissection(a, p.coords)
    fac = factor.factorize(a, tree, 1e-4, FactorOptions(min_sparsify_size=10**6))
    assert not fac.symmetric
    x, _ = solver.solve(fac, a, p.rhs)
    exact = spla.spsolve(a.csr.tocsc(), p.rhs)
    assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)
    # the 1e15 pair magnifies roundoff in A x, so one refinement step
    # brings the residual relative to b down to roundoff
    _, report = solver.solve(fac, a, p.rhs, refine=1)
    assert report.residual <= 1e-12


def test_complex_copy_takes_the_unsymmetric_path(problem):
    p, tree = problem
    a = SparseMatrix(p.matrix.csr * (1 + 0.5j))
    fac = factor.factorize(a, tree, 1e-4, _exact(p.n))
    assert not fac.symmetric
    assert _worst_residual(fac, a, _columns(p)) <= 1e-12


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_compressed_path_stays_within_the_benchmark_target(name):
    workload = WORKLOADS[name]
    p = assembly.build_problem(workload.descriptor, SMALL_N)
    tree = dissection.build_dissection(p.matrix, p.coords)
    fac = factor.factorize(p.matrix, tree, workload.eps, COMPRESS)
    assert any(f.kind == "sparsify" and f.interp.size for f in fac.factors)
    assert _worst_residual(fac, p.matrix, _columns(p)) <= workload.accuracy_target


@pytest.mark.parametrize("family", FAMILIES)
def test_interpolation_coefficients_stay_within_two(family):
    # Column-pivoted QR alone meets the strong rank-revealing bound of 2 on
    # the blocks the factorization compresses, so no swap cleanup is needed.
    p = assembly.build_problem(family, 4096)
    tree = dissection.build_dissection(p.matrix, p.coords)
    fac = factor.factorize(p.matrix, tree, 1e-4,
                           FactorOptions(min_sparsify_size=8))
    interps = [f.interp for f in fac.factors
               if f.kind == "sparsify" and f.interp.size]
    assert interps
    assert max(np.abs(i).max() for i in interps) <= 2.0


def test_refinement_never_raises_the_residual(problem):
    p, tree = problem
    fac = factor.factorize(p.matrix, tree, 1e-4, COMPRESS)
    b = _columns(p)
    _, plain = solver.solve(fac, p.matrix, b)
    _, refined = solver.solve(fac, p.matrix, b, refine=3)
    for before, after in zip(plain, refined):
        assert after.residual <= before.residual
        assert 0 <= after.refine_steps <= 3


def test_block_solve_agrees_with_vector_solves(problem):
    p, tree = problem
    fac = factor.factorize(p.matrix, tree, 1e-4, COMPRESS)
    b = _columns(p)
    b[:, 1] = 0.0
    x, reports = solver.solve(fac, p.matrix, b)
    for j, report in enumerate(reports):
        xj, rj = solver.solve(fac, p.matrix, b[:, j])
        assert np.linalg.norm(x[:, j] - xj) <= 1e-10 * np.linalg.norm(xj)
        assert report.zero_rhs == rj.zero_rhs == (j == 1)
        assert report.residual == pytest.approx(rj.residual, rel=1e-9,
                                                abs=1e-300)


def test_block_refinement_keeps_each_column_apart(problem):
    p, tree = problem
    fac = factor.factorize(p.matrix, tree, 1e-4, COMPRESS)
    b = _columns(p)
    b[:, 1] = 0.0
    _, plain = solver.solve(fac, p.matrix, b)
    x, refined = solver.solve(fac, p.matrix, b, refine=3)
    # the zero column solves exactly, so no step can lower its residual
    assert [r.refine_steps > 0 for r in refined] == [True, False, True, True]
    for j, (before, after) in enumerate(zip(plain, refined)):
        assert after.residual <= before.residual
        assert 0 <= after.refine_steps <= 3
        # each column reports the residual of the solution it kept
        res, _ = solver.residual_with_flag(p.matrix, x[:, j], b[:, j])
        assert after.residual == pytest.approx(res, rel=1e-6, abs=1e-300)


def test_block_solve_is_bitwise_the_vector_solves(problem):
    # scipy's sparse products sum each entry of a block in the order they
    # sum it for a vector, and every other step acts on rows
    p, tree = problem
    for a in (p.matrix, SparseMatrix(p.matrix.csr * (1 + 0.5j))):
        fac = factor.factorize(a, tree, 1e-4, COMPRESS)
        b = _columns(p)
        x, _ = solver.solve(fac, a, b)
        for j in range(b.shape[1]):
            xj, _ = solver.solve(fac, a, b[:, j])
            assert np.array_equal(x[:, j], xj)


def _three_passes(fac, vec):
    """The stage actions with D^-1 as a pass of its own: every left action,
    then D^-1 of every LDL^T stage, then every right action in reverse."""
    y = np.array(vec, dtype=np.promote_types(vec.dtype, fac.dtype), order="C")
    for stage in fac.stages:
        solver.apply_factor_left(stage, y)
    for stage in fac.stages:
        if stage.symmetric:
            solver.apply_factor_middle(stage, y)
    for stage in reversed(fac.stages):
        solver.apply_factor_right(stage, y)
    return y


@pytest.mark.parametrize("family,symmetric", [(FAMILIES[0], True),
                                              (FAMILIES[3], False)])
def test_two_passes_are_bitwise_the_three_pass_order(family, symmetric):
    # D^-1 acts on the positions its stage eliminates, which no later left
    # action reads or writes
    p = assembly.build_problem(family, SMALL_N)
    tree = dissection.build_dissection(p.matrix, p.coords)
    fac = factor.factorize(p.matrix, tree, 1e-4, COMPRESS)
    assert fac.symmetric == symmetric
    b = _columns(p)[tree.order]
    for y in (b[:, 0], b):
        assert (solver.apply_factors(fac, y).tobytes()
                == _three_passes(fac, y).tobytes())


def _stored(stage):
    """The distinct value arrays of a stage's operators; a transposed view
    shares its array."""
    stored = []
    for m in (stage.lower, stage.diag, stage.pull, stage.push):
        if m is not None and not any(np.shares_memory(m.data, d)
                                     for d in stored):
            stored.append(m.data)
    return stored


def test_stages_hold_the_only_copy_of_every_payload(problem):
    p, tree = problem
    fac = factor.factorize(p.matrix, tree, 1e-4, COMPRESS)
    kinds = {(s.kind, s.tag) for s in fac.stages}
    assert {("interior-lu", "interior"), ("sparsify", "sparsify"),
            ("eliminate", "remainder"), ("eliminate", "segment")} <= kinds
    for stage in fac.stages:
        stored = _stored(stage)
        assert sum(d.size for d in stored) == sum(f.payload_nnz
                                                  for f in stage.factors)
        for f in stage.factors:
            assert getattr(f, "payload", None) is None
            for name, value in vars(f).items():
                if isinstance(value, np.ndarray) and value.dtype.kind in "fc":
                    # a value array is a view into its stage's operator
                    assert any(np.shares_memory(value, d) for d in stored), \
                        name
    assert sum(d.size for s in fac.stages for d in _stored(s)) == \
        fac.factor_nnz


def _elimination(idx, nbr, seed=0):
    """An LU elimination of positions idx against nbr, payload kept."""
    rng = np.random.default_rng(seed)
    k, m = len(idx), len(nbr)
    self_block = rng.standard_normal((k, k)) + 4 * np.eye(k)
    f, _ = factor._eliminate(
        False, np.array(idx), np.array(nbr), self_block,
        rng.standard_normal((m, k)), rng.standard_normal((k, m)), 2,
        (2, 0, 2, seed), "segment")
    return f


def _sparsification(skeleton, redundant):
    return factor.SparsifyFactor(
        skeleton=np.array(skeleton), redundant=np.array(redundant),
        interp=np.ones((len(skeleton), len(redundant))), level=2)


@pytest.mark.parametrize("factors,position", [
    (lambda: [_elimination([0, 1], [4, 5]), _elimination([1, 2], [6], 1)], 1),
    (lambda: [_elimination([0, 1], [4, 5]), _elimination([4], [6], 1)], 4),
    (lambda: [_sparsification([0, 1], [2]), _sparsification([1, 5], [3])], 1),
], ids=["shared-idx", "idx-in-nbr", "shared-skeleton"])
def test_compile_rejects_factors_of_one_stage_that_overlap(factors, position):
    with pytest.raises(DimensionError, match=f"overlap at position {position}"):
        factor.compile_stage(factors())


def test_compile_accepts_eliminations_that_share_a_neighbor():
    stage = factor.compile_stage([_elimination([0, 1], [4, 5]),
                                  _elimination([2, 3], [5, 6], 1)])
    assert stage.nbr.tolist() == [4, 5, 6]


# Bunch-Kaufman takes each block's principal 2 x 2 block with a zero on its
# diagonal as one 2x2 pivot and the rest as 1x1 pivots: in the first, each
# row of that pivot's inverse holds one entry, off the diagonal; in the
# second, the pivot starts at row 1 and its rows hold one and two entries.
LDL_BLOCKS = {
    "zero-diagonal-pair": [[0.0, 1.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.25],
                           [0.5, 0.0, 5.0, 0.0], [0.0, 0.25, 0.0, 6.0]],
    "one-zero-in-a-pair": [[5.0, 0.5, 0.0, 0.0], [0.5, 0.0, 1.0, 0.0],
                           [0.0, 1.0, 0.0, 0.25], [0.0, 0.0, 0.25, 6.0]],
}


@pytest.mark.parametrize("name", LDL_BLOCKS)
def test_ldl_stage_holds_d_inverse_as_row_runs(name):
    block = np.array(LDL_BLOCKS[name])
    _, d, _ = sla.ldl(block)
    assert np.flatnonzero(np.diagonal(d, -1)).size == 1
    dinv = np.linalg.inv(d)
    rng = np.random.default_rng(1)
    f, _ = factor._eliminate(True, np.arange(4), np.array([6, 7]), block,
                             rng.standard_normal((2, 4)), None, 1,
                             (1, 0, 1, 0), "segment")
    diag = factor.compile_stage([f]).diag
    assert diag.toarray().tobytes() == dinv.tobytes()
    assert diag.nnz == np.count_nonzero(dinv)
    assert np.array_equal(np.diff(diag.indptr), np.count_nonzero(dinv, axis=1))
    if name == "zero-diagonal-pair":
        assert diag.indices[:2].tolist() == [1, 0]


def test_lu_stage_holds_the_upper_triangle_of_u_inverse():
    rng = np.random.default_rng(6)
    block = rng.standard_normal((6, 6))
    f, _ = factor._eliminate(False, np.arange(6), np.array([8, 9]), block,
                             rng.standard_normal((2, 6)),
                             rng.standard_normal((6, 2)), 1, (1, 0, 1, 0),
                             "segment")
    diag = factor.compile_stage([f]).diag
    lu, _ = core.lu_compact(block)
    u_inv = np.triu(core.triangular_inverse(lu, lower=False))
    assert diag.toarray().tobytes() == u_inv.tobytes()
    assert diag.nnz == 21
    assert np.allclose(u_inv @ np.triu(lu), np.eye(6))


@pytest.mark.parametrize("symmetric", [True, False])
def test_an_empty_block_compiles_beside_another(symmetric):
    # an empty unit is eliminated whole, in the stage of its level
    empty, (nbr, delta) = factor._eliminate(
        symmetric, np.empty(0, np.int64), np.empty(0, np.int64),
        np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)), 1,
        (1, 0, 1, 0), "segment")
    assert empty.payload_nnz == 0 and delta.shape == (0, 0)
    other, _ = factor._eliminate(symmetric, np.array([2, 3]), np.array([5]),
                                 np.array([[2.0, 1.0], [1.0, 3.0]]),
                                 np.ones((1, 2)), np.ones((2, 1)), 1,
                                 (1, 1, 1, 0), "segment")
    stage = factor.compile_stage([empty, other])
    assert stage.diag.shape == (2, 2) and stage.pull.shape == (2, 1)
    assert stage.idx.tolist() == [2, 3] and stage.nbr.tolist() == [5]


@pytest.mark.parametrize("symmetric,message", [(True, "singular diagonal"),
                                               (False, "zero pivot")])
def test_eliminate_names_the_singular_block(symmetric, message):
    with pytest.raises(SingularBlockError, match=message) as info:
        factor._eliminate(symmetric, np.arange(2), np.array([4]),
                          np.zeros((2, 2)), np.ones((1, 2)), np.ones((2, 1)),
                          3, (3, 1, 3, 0), "segment")
    assert (info.value.level, info.value.segment) == (3, (3, 1, 3, 0))
    assert str(info.value).endswith("in 2x2 block (level 3, segment "
                                    "(3, 1, 3, 0))")


@pytest.mark.parametrize("family", [FAMILIES[0], FAMILIES[3]])
def test_a_raw_matrix_passes_the_gate_once_per_call(family, monkeypatch):
    # every ndlu reference to core.as_csr counts the scans of a matrix that
    # is not a SparseMatrix
    p = assembly.build_problem(family, SMALL_N)
    raw, gate, scans = p.matrix.csr, core.as_csr, []

    def counting(a):
        if not isinstance(a, SparseMatrix):
            scans.append(a)
        return gate(a)

    for name, module in list(sys.modules.items()):
        if name == "ndlu" or name.startswith("ndlu."):
            for key, value in list(vars(module).items()):
                if value is gate:
                    monkeypatch.setattr(module, key, counting)
    tree = dissection.build_dissection(raw, p.coords)
    assert len(scans) == 1
    fac = factor.factorize(raw, tree, 1e-4, COMPRESS)
    assert len(scans) == 2
    solver.solve(fac, raw, _columns(p), refine=3)
    assert len(scans) == 3
    assert all(a is raw for a in scans)


def test_no_factor_of_a_stage_touches_the_unknowns_of_another(problem):
    # a factor writes idx (a sparsification its redundant positions) and
    # reads nbr (its skeleton)
    p, tree = problem
    fac = factor.factorize(p.matrix, tree, 1e-4, COMPRESS)
    for stage in fac.stages:
        sets = [(f.redundant, f.skeleton) if f.kind == "sparsify"
                else (f.idx, f.nbr) for f in stage.factors]
        owner = np.full(p.n, -1)
        for i, (idx, _) in enumerate(sets):
            assert np.all(owner[idx] == -1)
            owner[idx] = i
        for _, nbr in sets:
            assert np.all(owner[nbr] == -1), (stage.kind, stage.level)


# factor_nnz of the complex copies (LU on every family) at n=4096, floor 16
LU_NNZ = {
    "laplace-contrast:rho=100,seed=1": 398426,
    "helmholtz:k=5": 401021,
    "helmholtz-poly:k=20": 376500,
    "laplace-aniso:d12=1,d21=0": 421128,
}


@pytest.fixture(scope="module", params=FAMILIES)
def problem_4k(request):
    p = assembly.build_problem(request.param, 4096)
    return request.param, p, dissection.build_dissection(p.matrix, p.coords)


def test_segments_without_neighbors_are_eliminated_whole(problem_4k):
    family, p, tree = problem_4k
    for a in (p.matrix, SparseMatrix(p.matrix.csr * (1 + 0.5j))):
        fac = factor.factorize(a, tree, 1e-4, COMPRESS)
        sparsified = [f for f in fac.factors if f.kind == "sparsify"]
        assert sparsified
        assert all(f.skeleton.size for f in sparsified)
        # the root is eliminated once, whole
        assert [f.tag for f in fac.factors if f.level == 1] == ["segment"]
    # fac is the complex copy's; the root's remainder elimination stored
    # as many entries as its whole elimination does now
    assert fac.factor_nnz == LU_NNZ[family]


def test_factorization_draws_no_random_number(problem_4k, monkeypatch):
    # the problem and the tree are built (the contrast field seeds its own
    # noise); from here on, a random draw anywhere raises
    _, p, tree = problem_4k

    def refuse(*args, **kwargs):
        raise AssertionError("factorize drew a random number")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    fac = factor.factorize(p.matrix, tree, 1e-4, COMPRESS)
    assert any(f.kind == "sparsify" for f in fac.factors)


def test_a_complex_multiple_picks_the_same_skeletons(problem_4k):
    # A goes through LDL^T and the one-sided ID of a_nu; c A, c = 1 + 0.5j,
    # through LU and the joint ID of [c a_nu; (c a_un)^T], whose halves agree
    # up to roundoff. The QR of the whole block picks the same columns of
    # both, so every sparsification keeps the same skeleton
    _, p, tree = problem_4k
    skeletons = []
    for a in (p.matrix, SparseMatrix(p.matrix.csr * (1 + 0.5j))):
        fac = factor.factorize(a, tree, 1e-4, COMPRESS)
        skeletons.append([f.skeleton.tolist() for f in fac.factors
                          if f.kind == "sparsify"])
    assert fac.symmetric is False
    assert skeletons[0] and skeletons[0] == skeletons[1]


def test_level_stats_time_the_merge_apart(monkeypatch):
    p = assembly.build_problem(FAMILIES[3], 400)
    tree = dissection.build_dissection(p.matrix, p.coords)
    merge = factor.merge_segments

    def slow_merge(*args):
        time.sleep(0.05)
        return merge(*args)

    monkeypatch.setattr(factor, "merge_segments", slow_merge)
    fac = factor.factorize(p.matrix, tree, 1e-4)
    assert [row["l"] for row in fac.level_stats] == list(
        range(tree.levels, 0, -1))
    for row in fac.level_stats:
        assert row["time_merge"] >= 0.05
        assert row["time_eliminate"] < 0.05


def test_factorization_is_deterministic(problem):
    p, tree = problem
    first, second = (factor.factorize(p.matrix, tree, 1e-4, COMPRESS)
                     for _ in range(2))
    assert len(first.factors) == len(second.factors)
    for f, g in zip(first.factors, second.factors):
        assert type(f) is type(g) and vars(f).keys() == vars(g).keys()
        for name, value in vars(f).items():
            other = getattr(g, name)
            if isinstance(value, np.ndarray):
                assert value.dtype == other.dtype
                assert value.tobytes() == other.tobytes(), name
            else:
                assert value == other, name


def _dropped(block, ident):
    """Largest entry the decomposition drops from block: its redundant
    columns less their interpolation from the skeleton columns."""
    gap = block[:, ident.redundant] - block[:, ident.skeleton] @ ident.interp
    return np.abs(gap).max(initial=0.0)


def test_sparsify_drops_stay_within_the_bound(problem, monkeypatch):
    # every entry a decomposition drops is at most eps (1 + ||interp||_2)
    # times the largest column norm over the halves it decomposes, on both
    # halves of a joint decomposition. At n=1500 and floor 16 the largest
    # dropped/bound ratio reads 0.02 to 0.17 over the families; a cutoff of
    # 30 eps in lowrank.cpqr_id breaks the bound on every family.
    p, tree = problem
    eps = 1e-4
    calls = []

    def checked(decompose):
        def wrapper(coupling_in, *args):
            ident = decompose(coupling_in, *args)
            *coupling_out, _ = args  # eps comes last
            halves = [coupling_in] + [c.T for c in coupling_out]
            growth = (np.linalg.norm(ident.interp, 2) if ident.interp.size
                      else 0.0)
            bound = (eps * (1.0 + growth)
                     * max(np.linalg.norm(h, axis=0).max() for h in halves))
            calls.append([(_dropped(half, ident), bound) for half in halves])
            return ident
        return wrapper

    monkeypatch.setattr(lowrank, "sampled_id", checked(lowrank.sampled_id))
    monkeypatch.setattr(lowrank, "joint_unsymmetric_id",
                        checked(lowrank.joint_unsymmetric_id))
    fac = factor.factorize(p.matrix, tree, eps, COMPRESS)
    assert calls
    assert all(len(halves) == (1 if fac.symmetric else 2) for halves in calls)
    assert all(dropped <= bound for halves in calls for dropped, bound in halves)


@pytest.fixture
def interiors_done():
    p = assembly.build_problem(FAMILIES[3], SMALL_N)
    tree = dissection.build_dissection(p.matrix, p.coords)
    state, _ = factor.eliminate_interiors(p.matrix, tree)
    return state


def _relabel_to_a_neighbor(state):
    unit = next(u for u in state.units.values()
                if state.neighbors(u).size)
    state.pos_unit[unit.pos[0]] = state.neighbors(unit)[0]


def _leave_a_retired_position_live(state):
    unit = next(iter(state.units.values()))
    state.remove_unit(unit)
    state.pos_unit[unit.pos[-1]] = unit.serial


@pytest.mark.parametrize("fault,message", [
    (_relabel_to_a_neighbor, "is owned by another"),
    (_leave_a_retired_position_live, "live outside every active segment"),
], ids=["relabelled", "retired-live"])
def test_pack_rejects_broken_ownership(interiors_done, fault, message):
    state = interiors_done
    state.pack()
    fault(state)
    with pytest.raises(DimensionError, match=message):
        state.pack()


def test_symmetric_store_holds_both_orientations_of_every_coupling():
    p = assembly.build_problem(FAMILIES[0], SMALL_N)
    tree = dissection.build_dissection(p.matrix, p.coords)
    state, _ = factor.eliminate_interiors(p.matrix, tree)
    assert state.symmetric
    for uid in state.active_ids():
        unit = state.units[uid]
        nbr_pos = state.positions(state.neighbors(unit))
        assert nbr_pos.size
        coupling = state.gather(nbr_pos, unit.pos)
        gap = state.gather(unit.pos, nbr_pos) - coupling.T
        assert np.linalg.norm(gap) <= 1e-12 * np.linalg.norm(coupling)


@pytest.mark.parametrize("family", [FAMILIES[0], FAMILIES[3]])
def test_sparsify_eliminates_what_it_decouples(family, monkeypatch):
    # the redundant positions leave the store at once, and the one store
    # write is the remainder's Schur update on the skeleton's self block:
    # -T_sr T_rr^-1 T_rs of the transformed self block T
    p = assembly.build_problem(family, 4096)
    tree = dissection.build_dissection(p.matrix, p.coords)
    state, _ = factor.eliminate_interiors(p.matrix, tree)
    unit = max((u for u in state.units.values() if u.kind == REGULAR),
               key=lambda u: u.size)
    pos = unit.pos.copy()
    before = state.gather(pos, pos)
    writes = []
    add = factor.SchurState.add_to_block

    def counted(self, rows, cols, delta):
        writes.append((rows.copy(), cols.copy()))
        return add(self, rows, cols, delta)

    monkeypatch.setattr(factor.SchurState, "add_to_block", counted)
    (sparsify, remainder), skeleton = factor.sparsify_segment(
        state, unit, 1e-2, tree.levels)
    red = sparsify.redundant
    assert red.size and skeleton.size
    assert (remainder.tag, remainder.level) == ("remainder", tree.levels)
    assert np.array_equal(remainder.idx, red)
    assert np.array_equal(remainder.nbr, skeleton)
    assert np.all(state.pos_unit[red] == -1)
    assert np.array_equal(unit.pos, skeleton)
    assert np.array_equal(np.union1d(red, skeleton), pos)
    assert len(writes) == 1
    assert all(np.array_equal(w, skeleton) for w in writes[0])

    r, s = np.searchsorted(pos, red), np.searchsorted(pos, skeleton)
    left = np.eye(pos.size)
    left[np.ix_(r, s)] = -sparsify.interp.T
    t = left @ before @ left.T
    change = -t[np.ix_(s, r)] @ np.linalg.solve(t[np.ix_(r, r)],
                                                t[np.ix_(r, s)])
    got = state.gather(skeleton, skeleton) - before[np.ix_(s, s)]
    assert np.abs(change).max() > 0
    assert np.allclose(got, change, rtol=0,
                       atol=1e-12 * np.abs(change).max())


@pytest.mark.parametrize("symmetric", [True, False])
def test_store_adds_each_entry_where_it_is_addressed(symmetric):
    ids = [(1, 0, 1, 1), (1, 0, 1, 2)]
    state = factor.SchurState(4, np.float64, symmetric, ids)
    small, large = (state.add_unit(uid, np.array(pos), "regular")
                    for uid, pos in zip(ids, ([0, 1], [2, 3])))
    dense = np.arange(16.0).reshape(4, 4)
    rows, cols = np.nonzero(np.ones((4, 4)))
    state.pack(entries=(rows, cols, dense[rows, cols]))

    # a write one way lands only in the orientation it addresses
    delta = np.array([[1.0, 2.0], [3.0, 4.0]])
    state.add_to_block(large.pos, small.pos, delta)
    dense[2:, :2] += delta
    # a square write adds each entry once
    both = np.arange(4)
    state.add_to_block(both, both, np.ones((4, 4)))
    state.add_to_block(both, both.copy(), np.ones((4, 4)))
    dense += 2.0
    assert np.array_equal(state.gather(both, both), dense)


def _small_system(n, symmetric, seed=0):
    rng = np.random.default_rng(seed)
    b = sp.random(n, n, density=0.3, random_state=seed) if n else \
        sp.csr_matrix((0, 0))
    a = (b + b.T if symmetric else b) + 4.0 * sp.eye(n)
    return SparseMatrix(sp.csr_matrix(a)), rng.random((n, 2))


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("n", [1, 5, 30])
def test_systems_within_one_leaf_solve_exactly(n, symmetric):
    a, coords = _small_system(n, symmetric)
    tree = dissection.build_dissection(a, coords)
    assert tree.separators == []
    fac = factor.factorize(a, tree, 1e-4)
    # a 1x1 matrix is symmetric whatever it was built as
    assert fac.symmetric == factor.is_symmetric(a) == (symmetric or n == 1)
    b = np.random.default_rng(n).standard_normal(n)
    _, report = solver.solve(fac, a, b)
    assert report.residual <= 1e-13


def test_empty_system_factorizes_to_nothing():
    a, coords = _small_system(0, True)
    tree = dissection.build_dissection(a, coords)
    fac = factor.factorize(a, tree, 1e-4)
    assert fac.n == 0 and fac.factor_nnz == 0


@pytest.mark.parametrize("shape", [(0,), (0, 3), (0, 0)])
def test_empty_system_solves_to_an_empty_solution(shape):
    a, coords = _small_system(0, True)
    fac = factor.factorize(a, dissection.build_dissection(a, coords), 1e-4)
    x, reports = solver.solve(fac, a, np.zeros(shape))
    assert x.shape == shape
    if len(shape) == 1:
        reports = [reports]
    assert len(reports) == (shape[1] if len(shape) == 2 else 1)
    assert all(r.residual == 0.0 for r in reports)


@pytest.mark.parametrize("shape", [(), (3, 1, 1), (4,)])
def test_solve_rejects_a_right_hand_side_of_the_wrong_shape(shape):
    a, coords = _small_system(3, True)
    fac = factor.factorize(a, dissection.build_dissection(a, coords), 1e-4)
    with pytest.raises(DimensionError):
        solver.solve(fac, a, np.ones(shape))


def test_solve_rejects_a_non_finite_right_hand_side():
    a, coords = _small_system(3, True)
    fac = factor.factorize(a, dissection.build_dissection(a, coords), 1e-4)
    with pytest.raises(NonFiniteError):
        solver.solve(fac, a, np.array([1.0, np.nan, 0.0]))


@pytest.mark.parametrize("refine", [1.5, -1, "2", True])
def test_solve_rejects_a_refine_that_is_not_a_nonnegative_int(refine):
    a, coords = _small_system(3, True)
    fac = factor.factorize(a, dissection.build_dissection(a, coords), 1e-4)
    with pytest.raises(ConfigError):
        solver.solve(fac, a, np.ones(3), refine=refine)


@pytest.mark.parametrize("family", [FAMILIES[0], FAMILIES[3]])
@pytest.mark.parametrize("own_tree", [True, False])
def test_singular_block_error_names_its_block(family, own_tree):
    # vertex 5 loses its row and column: in the zeroed matrix's own
    # dissection it is a leaf of its own, in the intact matrix's it sits on
    # a separator segment
    p = assembly.build_problem(family, SMALL_N)
    lil = p.matrix.csr.tolil()
    lil[5, :] = 0
    lil[:, 5] = 0
    a = SparseMatrix(sp.csr_matrix(lil))
    tree = dissection.build_dissection(a if own_tree else p.matrix, p.coords)
    with pytest.raises(SingularBlockError) as info:
        factor.factorize(a, tree, 1e-4)
    err = info.value
    if own_tree:
        s = int(tree.position[5])
        assert (err.level, err.segment) == (tree.levels + 1, ("leaf", s, s + 1))
    else:
        assert err.level == err.segment[0]
        assert 5 in tree.segments[err.segment].vertices


def _ldl_reference(self_block, a_nu):
    """The LDL^T kernel as built on scipy.linalg.ldl, with D^-1 as the dense
    inverse of D (bitwise the reciprocals and stacked 2x2 inverses of its
    pivot blocks): (payload, Schur complement)."""
    k = self_block.shape[0]
    lu, d, perm = sla.ldl(self_block, check_finite=False)
    lower = lu[perm]
    dinv = np.linalg.inv(d)
    t1 = core.triangular_solve(lower, a_nu.T[perm], lower=True,
                               unit_diag=True)
    coupling = (dinv @ t1).T
    schur = coupling @ t1
    linv = core.triangular_inverse(lower, lower=True, unit_diag=True)
    nonzero = dinv != 0
    counts = np.count_nonzero(nonzero, axis=1)
    return factor._Payload(
        perm=perm, lower=linv[np.tri(k, k, -1, dtype=bool)],
        diag=dinv[nonzero], diag_counts=counts, pull=coupling.T,
        diag_first=np.nonzero(nonzero)[1][np.cumsum(counts) - counts]), schur


def _ldl_blocks():
    """(name, self block, in-coupling): the sizes 0 to 2, random indefinite
    blocks up to k = 60, a 2x2 pivot with a zero diagonal."""
    rng = np.random.default_rng(7)
    cases = [("k0", np.zeros((0, 0)), np.zeros((3, 0))),
             ("k1", np.array([[-2.5]]), rng.standard_normal((3, 1))),
             ("k2", np.array([[1e-3, 2.0], [2.0, -1.0]]),
              rng.standard_normal((3, 2))),
             ("zero-diagonal-pair", np.array(LDL_BLOCKS["zero-diagonal-pair"]),
              rng.standard_normal((2, 4)))]
    for k in (3, 5, 8, 13, 21, 34, 60):
        for trial in range(3):
            b = rng.standard_normal((k, k))
            cases.append((f"random-{k}-{trial}", b + b.T,
                          rng.standard_normal((int(rng.integers(0, 2 * k)), k))))
    return cases


def test_ldl_kernel_is_bitwise_the_scipy_ldl_reference():
    pivots = set()
    for name, block, a_nu in _ldl_blocks():
        got = factor._symmetric_elimination(block, a_nu, None)
        want = _ldl_reference(block, a_nu)
        for part, g, w in zip(factor._Payload._fields + ("schur",),
                              (*got[0], got[1]), (*want[0], want[1])):
            if w is None:
                assert g is None
                continue
            assert (g.shape, g.dtype, g.tobytes()) == \
                (w.shape, w.dtype, w.tobytes()), (name, part)
        _, d, perm = sla.ldl(block)
        if np.any(np.diagonal(d, -1)):
            pivots.add("2x2")
        if len(d) > 2 * np.count_nonzero(np.diagonal(d, -1)):
            pivots.add("1x1")
        if np.any(perm != np.arange(len(perm))):
            pivots.add("swap")
    assert pivots == {"1x1", "2x2", "swap"}


def test_ldl_diagonal_inverse_is_bitwise_the_dense_inverse(monkeypatch):
    # an indefinite block, so Bunch-Kaufman takes 1x1 and 2x2 pivots
    b = np.random.default_rng(4).standard_normal((40, 40))
    indefinite = b + b.T
    _, d, _ = sla.ldl(indefinite)
    pairs = np.flatnonzero(np.diagonal(d, -1))
    assert pairs.size and 40 > 2 * pairs.size

    def eliminate(block):
        k = block.shape[0]
        return factor._eliminate(True, np.arange(k), np.array([k + 1]),
                                 block, np.ones((1, k)), None, 2,
                                 (2, 0, 2, 0), "segment")[0]

    diag = factor.compile_stage([eliminate(indefinite)]).diag
    dense = np.linalg.inv(d)
    # equal values; the dense inverse leaves some of its zeros negative
    assert np.array_equal(diag.toarray(), dense)
    assert diag.data.tobytes() == dense[dense != 0].tobytes()

    # a singular 2x2 pivot is planted in the factor dsytrf returns, through
    # core's handle cache, since Bunch-Kaufman's pivot test never picks one
    sytrf = core._lapack("sytrf", indefinite)
    ldu, ipiv, _ = sytrf(indefinite, lower=1)
    i = int(np.flatnonzero(ipiv < 0)[0])
    ldu[i:i + 2, i] = [1.0, 2.0]
    ldu[i + 1, i + 1] = 4.0
    monkeypatch.setitem(
        core._LAPACK, ("sytrf", indefinite.dtype), lambda a, lwork, lower: (
            (ldu, ipiv, 0) if a is indefinite else sytrf(a, lwork=lwork,
                                                         lower=lower)))
    nan = np.eye(3)
    nan[1, 2] = nan[2, 1] = np.nan
    for block, message in [(np.diag([1.0, 0.0, 2.0]), "singular diagonal"),
                           (indefinite, "singular diagonal"),
                           (np.diag([np.inf, 1.0, 2.0]), "non-finite pivot"),
                           (nan, "non-finite pivot")]:
        k = block.shape[0]
        with pytest.raises(SingularBlockError, match=message) as info:
            eliminate(block)
        assert (info.value.level, info.value.segment) == (2, (2, 0, 2, 0))
        assert str(info.value).endswith(
            f"in {k}x{k} block (level 2, segment (2, 0, 2, 0))")


def _poisoned(family, coupled_rows):
    """family's matrix at SMALL_N with two entries of one interior coupling
    set to 1e308: between an interior vertex i of the fourth leaf and two of
    its neighbours j1, j2 outside the leaf, entries (i, j1) and (j1, i)
    when coupled_rows is False, (j1, i) and (j2, i) when it is True."""
    p = assembly.build_problem(family, SMALL_N)
    tree = dissection.build_dissection(p.matrix, p.coords)
    leaf = tree.leaves[3]
    inside = tree.order[leaf.span[0]:leaf.span[1]]
    csr = p.matrix.csr
    i = next(v for v in inside
             if np.setdiff1d(csr[v].indices, inside).size >= 2)
    j1, j2 = np.setdiff1d(csr[i].indices, inside)[:2]
    lil = csr.tolil()
    for r, c in ([(j1, i), (j2, i)] if coupled_rows else [(i, j1), (j1, i)]):
        lil[r, c] = 1e308
    return p, tree, leaf, SparseMatrix(sp.csr_matrix(lil))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family", [FAMILIES[0], FAMILIES[3]])
def test_overflowing_elimination_names_its_block(family):
    # the leaf's Schur update overflows
    _, tree, leaf, a = _poisoned(family, coupled_rows=False)
    with pytest.raises(SingularBlockError, match="non-finite") as info:
        factor.factorize(a, tree, 1e-4)
    assert (info.value.level, info.value.segment) == \
        (tree.levels + 1, ("leaf", *leaf.span))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family,error", [(FAMILIES[0], SingularBlockError),
                                          (FAMILIES[3], NonFiniteError)])
def test_non_finite_values_raise_an_ndlu_error(family, error):
    # on laplace-aniso the factors stay finite and only the residual
    # b - A x overflows
    p, tree, _, a = _poisoned(family, coupled_rows=True)
    with pytest.raises(error) as info:
        fac = factor.factorize(a, tree, 1e-4)
        solver.solve(fac, a, np.column_stack([p.rhs, p.rhs]))
    assert isinstance(info.value, NdluError)
    if error is NonFiniteError:
        assert "column(s) [0, 1]" in str(info.value)


def _store(dense, slots, ids, symmetric):
    """A SchurState over units holding the given slots of dense, packed with
    its entries."""
    state = factor.SchurState(len(dense), np.float64, symmetric, ids.values())
    for name, pos in slots.items():
        state.add_unit(ids[name], np.array(pos), "regular")
    rows, cols = np.nonzero(dense)
    state.pack(entries=(rows, cols, dense[rows, cols]))
    return state


def _coupled(slots, pairs, symmetric, seed=3):
    """Diagonally dominant dense matrix whose unit blocks are nonzero on the
    diagonal and for the given unit pairs, in both orientations."""
    rng = np.random.default_rng(seed)
    n = sum(len(pos) for pos in slots.values())
    dense = np.zeros((n, n))
    for u, v in [(u, u) for u in slots] + pairs:
        dense[np.ix_(slots[u], slots[v])] = rng.standard_normal((2, 2))
        dense[np.ix_(slots[v], slots[u])] = rng.standard_normal((2, 2))
    dense += 8.0 * np.eye(n)
    return dense + dense.T if symmetric else dense


@pytest.mark.parametrize("symmetric", [True, False])
def test_store_fill_and_merge_match_the_dense_schur_complement(symmetric):
    # Units A and B (owned by level 2) do not touch. Eliminating A puts fill
    # between C and D, which are not coupled in the matrix, so the pack after
    # the eliminations must make the C-D block. The merge relabels C and D as
    # P before that pack, and P's self block must then be the dense Schur
    # complement of A and B.
    ids = {"A": (2, 0, 2, 0), "B": (2, 1, 2, 0), "C": (1, 0, 1, 1),
           "D": (1, 0, 1, 2), "P": (1, 0, 1, 0)}
    slots = {"A": [0, 1], "B": [2, 3], "C": [4, 5], "D": [6, 7]}
    dense = _coupled(slots, [("A", "C"), ("A", "D"), ("B", "D")], symmetric)
    state = _store(dense, slots, ids, symmetric)
    factors, updates = factor.eliminate_segments(state, 2)
    assert [list(f.nbr) for f in factors] == [[4, 5, 6, 7], [6, 7]]

    event = SimpleNamespace(level=2, parent=ids["P"],
                            children=[ids["C"], ids["D"]])
    tree = SimpleNamespace(events=[event],
                           segments={ids["P"]: SimpleNamespace(kind=REGULAR)})
    factor.merge_segments(state, tree, 2, updates)
    parent = state.units[ids["P"]]
    schur = dense[4:, 4:] - dense[4:, :4] @ np.linalg.solve(dense[:4, :4],
                                                            dense[:4, 4:])
    got = state.gather(parent.pos, parent.pos)
    assert np.allclose(got, schur, rtol=0, atol=1e-12)


def _assert_store_is_the_dense_schur_complement(state, dense):
    """The stored blocks of state agree with the dense Schur complement of
    its live positions, and every unit pair coupled there is stored."""
    live = np.flatnonzero(state.pos_unit >= 0)
    gone = np.flatnonzero(state.pos_unit < 0)
    schur = dense[np.ix_(live, live)] - dense[np.ix_(live, gone)] @ \
        np.linalg.solve(dense[np.ix_(gone, gone)], dense[np.ix_(gone, live)])
    tol = 1e-10 * np.abs(schur).max(initial=1.0)
    r = len(state.unit_ids)
    by_serial = {u.serial: u for u in state.units.values()}
    at = {s: np.searchsorted(live, u.pos) for s, u in by_serial.items()}
    stored = np.zeros_like(schur)
    for a, b in zip(*np.divmod(state.keys, r)):
        rows, cols = by_serial[a].pos, by_serial[b].pos
        stored[np.ix_(at[a], at[b])] = state.gather(rows, cols)
    assert np.allclose(stored, schur, rtol=0, atol=tol)
    keys = set(state.keys.tolist())
    for a, b in itertools.product(at, repeat=2):
        if np.abs(schur[np.ix_(at[a], at[b])]).max(initial=0.0) > tol:
            assert a * r + b in keys, (by_serial[a].uid, by_serial[b].uid)


@pytest.mark.parametrize("family", [FAMILIES[0], FAMILIES[3]])
def test_store_holds_the_schur_complement_per_stage(family):
    # the exact path: no segment is sparsified, so after the leaf stage and
    # after each merge the store holds the Schur complement of everything
    # eliminated so far, in a block for every coupled unit pair
    p = assembly.build_problem(family, 800)
    tree = dissection.build_dissection(p.matrix, p.coords)
    dense = p.matrix.csr[tree.order][:, tree.order].toarray()
    state, _ = factor.eliminate_interiors(p.matrix, tree)
    assert state.symmetric == (family == FAMILIES[0])
    _assert_store_is_the_dense_schur_complement(state, dense)
    for level in range(tree.levels, 0, -1):
        _, updates = factor.eliminate_segments(state, level)
        factor.merge_segments(state, tree, level, updates)
        _assert_store_is_the_dense_schur_complement(state, dense)
    assert not state.units


@pytest.mark.parametrize("family", [FAMILIES[0], FAMILIES[3]])
def test_pack_carries_every_live_entry_bitwise(family, monkeypatch):
    # a dense mirror takes every store write: the matrix entries a pack
    # stores and each add_to_block. After every pack, each stored block
    # reads exactly the mirror at its live positions, also once
    # sparsifications have shrunk units (keep_positions) before the pack
    # carries their entries.
    p = assembly.build_problem(family, SMALL_N)
    tree = dissection.build_dissection(p.matrix, p.coords)
    mirror = np.zeros((p.n, p.n))
    pack, add = factor.SchurState.pack, factor.SchurState.add_to_block
    compared = []

    def mirrored_pack(self, entries=None, fronts=()):
        if entries is not None:
            rows, cols, values = entries
            mirror[rows, cols] = values
        pack(self, entries, fronts)
        units = {u.serial: u.pos for u in self.units.values()}
        for a, b in zip(*np.divmod(self.keys, len(self.unit_ids))):
            rows, cols = units[a], units[b]
            assert np.array_equal(self.gather(rows, cols),
                                  mirror[np.ix_(rows, cols)])
        compared.append(self.keys.size)

    def mirrored_add(self, rows, cols, delta):
        mirror[np.ix_(rows, cols)] += delta
        add(self, rows, cols, delta)

    monkeypatch.setattr(factor.SchurState, "pack", mirrored_pack)
    monkeypatch.setattr(factor.SchurState, "add_to_block", mirrored_add)
    fac = factor.factorize(p.matrix, tree, 1e-4,
                           FactorOptions(min_sparsify_size=8))
    assert any(f.kind == "sparsify" for f in fac.factors)
    assert len(compared) == tree.levels + 1 and sum(compared) > 1000


def test_units_of_one_stage_that_touch_are_rejected():
    ids = {"A": (2, 0, 2, 0), "B": (2, 1, 2, 0), "C": (1, 0, 1, 1)}
    slots = {"A": [0, 1], "B": [2, 3], "C": [4, 5]}
    dense = _coupled(slots, [("A", "B"), ("A", "C")], True)
    # A's factor couples to B's positions, which B's factor eliminates
    state = _store(dense, slots, ids, True)
    with pytest.raises(DimensionError, match="level 2"):
        factor.compile_stage(factor.eliminate_segments(state, 2)[0])
    # a stage that owns only one of two coupled units compiles
    state = _store(dense, slots, ids, True)
    factor.compile_stage(factor.eliminate_segments(state, 1)[0])


def test_store_rejects_access_and_merges_it_cannot_serve():
    ids = {"A": (2, 0, 2, 0), "B": (2, 1, 2, 0), "C": (1, 0, 1, 1),
           "D": (1, 0, 1, 2), "P": (1, 0, 1, 0)}
    slots = {"A": [0, 1], "B": [2, 3], "C": [4, 5], "D": [6, 7]}
    dense = _coupled(slots, [("A", "C"), ("B", "D")], False)
    state = _store(dense, slots, ids, False)
    a, b, c, d = (state.units[ids[name]] for name in "ABCD")
    # A and B are not coupled, so no block between them is stored
    with pytest.raises(DimensionError, match="outside the stored blocks"):
        state.gather(a.pos, b.pos)
    with pytest.raises(DimensionError, match="out-of-order positions"):
        state.merge_units([d, c], ids["P"], REGULAR)
    state.keep_positions(a, np.array([1]))
    with pytest.raises(DimensionError, match="touches an eliminated"):
        state.gather(np.array([0]), c.pos)
    # the live half of A still reads as stored
    assert np.array_equal(state.gather(a.pos, c.pos), dense[1:2, 4:6])


def test_sparsify_refuses_a_junction_and_passes_over_an_empty_unit():
    ids = [(1, 0, 1, 1), (1, 0, 1, 2)]
    state = factor.SchurState(2, np.float64, True, ids)
    junction = state.add_unit(ids[0], np.array([0, 1]), JUNCTION)
    empty = state.add_unit(ids[1], np.empty(0, np.int64), REGULAR)
    with pytest.raises(ConfigError, match="junction"):
        factor.sparsify_segment(state, junction, 1e-4, 1)
    factors, skeleton = factor.sparsify_segment(state, empty, 1e-4, 1)
    assert factors == [] and skeleton.size == 0


@pytest.mark.parametrize("floor", [None, "8", -1, 2.5])
def test_factor_options_reject_a_floor_that_is_not_a_nonnegative_int(floor):
    with pytest.raises(ConfigError):
        FactorOptions(min_sparsify_size=floor)


def test_factor_options_are_checked_once_and_frozen():
    with pytest.raises(ConfigError):
        FactorOptions(min_sparsify_size=-1)
    # every segment is compressed by one pivoted QR of its whole coupling,
    # and the store's ownership check runs at every pack with no switch
    for removed in ("sampling", "audit"):
        with pytest.raises(TypeError):
            FactorOptions(**{removed: True})
    assert [f.name for f in dataclasses.fields(FactorOptions)] == [
        "min_sparsify_size"]
    opts = FactorOptions()
    with pytest.raises(AttributeError):
        opts.min_sparsify_size = 8


@pytest.mark.parametrize("eps", ["1e-4", None, 0.0, float("nan")])
def test_factorize_rejects_an_eps_that_is_not_a_number_in_0_1(eps):
    a, coords = _small_system(5, True)
    tree = dissection.build_dissection(a, coords)
    with pytest.raises(ConfigError):
        factor.factorize(a, tree, eps)


def test_factorize_rejects_a_raw_matrix_holding_a_nan():
    p = assembly.build_problem(FAMILIES[0], 400)
    a = p.matrix.csr.copy()
    a.data[a.indptr[3]] = np.nan
    tree = dissection.build_dissection(p.matrix, p.coords)
    with pytest.raises(NonFiniteError):
        dissection.build_dissection(a, p.coords)
    with pytest.raises(NonFiniteError):
        factor.factorize(a, tree, 1e-4)
    fac = factor.factorize(p.matrix, tree, 1e-4)
    with pytest.raises(NonFiniteError):
        solver.solve(fac, a, p.rhs)


def _tree(n):
    return dissection.build_dissection(*_small_system(n, True))


def _factorization(n):
    a, coords = _small_system(n, True)
    return factor.factorize(a, dissection.build_dissection(a, coords), 1e-4)


def _read_written(tmp_path, a, rhs=None, points=None):
    """read_matrix_market of a, `points` (0, 0) points (one per row of a by
    default) and rhs."""
    paths = [tmp_path / "a.mtx", tmp_path / "xy.txt"]
    scipy.io.mmwrite(paths[0], sp.csr_matrix(a))
    np.savetxt(paths[1], np.zeros((a.shape[0] if points is None else points, 2)))
    if rhs is not None:
        paths.append(tmp_path / "b.txt")
        np.savetxt(paths[2], rhs)
    return assembly.read_matrix_market(*paths)


WIDE = sp.csr_matrix(np.ones((3, 4)))
SQUARE = sp.identity(3, format="csr")
RAGGED = [[1.0, 2.0, 3.0], [4.0], [5.0, 6.0, 7.0]]
RAGGED_WORDS = "matrix must hold numbers: setting an array element"
CUBE = np.ones((3, 3, 3))
CUBE_WORDS = r"matrix must be 2-D, got shape \(3, 3, 3\)"


@pytest.mark.parametrize("options", [{}, {"min_sparsify_size": 8}, 8],
                         ids=["empty-dict", "dict", "int"])
def test_factorize_rejects_options_that_are_not_factor_options(options):
    with pytest.raises(ConfigError):
        factor.factorize(SQUARE, _tree(3), 1e-4, options)


# case: (error, words of its message, call on a scratch directory)
INPUT_CHECKS = {
    "factorize-non-square": (
        DimensionError, "needs a square matrix",
        lambda _: factor.factorize(WIDE, _tree(3), 1e-4)),
    "factorize-not-a-tree": (
        ConfigError, "must be a DissectionTree",
        lambda _: factor.factorize(SQUARE, None, 1e-4)),
    "factorize-tree-size": (
        DimensionError, "tree does not match",
        lambda _: factor.factorize(SQUARE, _tree(5), 1e-4)),
    "solve-matrix-shape": (
        DimensionError, "factorization covers 5",
        lambda _: solver.solve(_factorization(5), SQUARE, np.ones(5))),
    "solve-not-a-factorization": (
        ConfigError, "needs a SpaluFactorization",
        lambda _: solver.solve(None, SQUARE, np.ones(3))),
    "solve-text-rhs": (
        ConfigError, "rhs must hold numbers, got dtype <U1",
        lambda _: solver.solve(_factorization(3), SQUARE,
                               np.array(["1", "2", "3"]))),
    "solve-object-rhs": (
        ConfigError, "rhs must hold numbers, got dtype object",
        lambda _: solver.solve(_factorization(3), SQUARE,
                               np.array([1.0, 2.0, 3.0], dtype=object))),
    "residual-dimensions": (
        DimensionError, "dimensions do not match",
        lambda _: solver.residual_with_flag(SQUARE, np.ones(4), np.ones(3))),
    "residual-block-against-vector": (
        DimensionError, "dimensions do not match",
        lambda _: solver.residual_with_flag(SQUARE, np.ones((3, 2)),
                                            np.ones(3))),
    "dissection-coords-shape": (
        DimensionError, "coords shape",
        lambda _: dissection.build_dissection(SQUARE, np.zeros((3, 3)))),
    "dissection-non-square": (
        DimensionError, "needs a square matrix",
        lambda _: dissection.build_dissection(WIDE, np.zeros((3, 2)))),
    "dissection-text-matrix": (
        ConfigError, "matrix must hold numbers, got dtype <U1",
        lambda _: dissection.build_dissection("x", np.zeros((1, 2)))),
    "dissection-text-coords": (
        ConfigError, "coords must hold numbers",
        lambda _: dissection.build_dissection(SQUARE, "x")),
    "factorize-text-matrix": (
        ConfigError, "matrix must hold numbers, got dtype <U1",
        lambda _: factor.factorize("x", _tree(3), 1e-4)),
    "solve-text-matrix": (
        ConfigError, "matrix must hold numbers, got dtype <U1",
        lambda _: solver.solve(_factorization(3), "x", np.ones(3))),
    "read-non-square": (
        DimensionError, r"needs a square matrix, got \(3, 4\)",
        lambda tmp: _read_written(tmp, WIDE)),
    "read-rhs-length": (
        DimensionError, "rhs length 4",
        lambda tmp: _read_written(tmp, SQUARE, np.ones(4))),
    "read-coords-length": (
        DimensionError, "2 coordinate points for a 3-row matrix",
        lambda tmp: _read_written(tmp, SQUARE, points=2)),
    "solve-ragged-rhs": (
        ConfigError, "rhs must hold numbers: setting an array element",
        lambda _: solver.solve(_factorization(3), SQUARE,
                               [[1.0], [2.0, 3.0], [1.0]])),
    "residual-text-x": (
        ConfigError, "x must hold numbers, got dtype <U1",
        lambda _: solver.residual_with_flag(SQUARE, np.array(list("abc")),
                                            np.ones(3))),
    "dissection-complex-coords": (
        ConfigError, "coords must be real, got dtype complex128",
        lambda _: dissection.build_dissection(SQUARE, np.zeros((3, 2)) + 1j)),
    # every entry point that takes a matrix goes through core.as_csr
    "dissection-ragged-matrix": (
        ConfigError, RAGGED_WORDS,
        lambda _: dissection.build_dissection(RAGGED, np.zeros((3, 2)))),
    "factorize-ragged-matrix": (
        ConfigError, RAGGED_WORDS,
        lambda _: factor.factorize(RAGGED, _tree(3), 1e-4)),
    "solve-ragged-matrix": (
        ConfigError, RAGGED_WORDS,
        lambda _: solver.solve(_factorization(3), RAGGED, np.ones(3))),
    "residual-ragged-matrix": (
        ConfigError, RAGGED_WORDS,
        lambda _: solver.residual_with_flag(RAGGED, np.ones(3), np.ones(3))),
    "dissection-3d-matrix": (
        DimensionError, CUBE_WORDS,
        lambda _: dissection.build_dissection(CUBE, np.zeros((3, 2)))),
    "factorize-3d-matrix": (
        DimensionError, CUBE_WORDS,
        lambda _: factor.factorize(CUBE, _tree(3), 1e-4)),
    "solve-3d-matrix": (
        DimensionError, CUBE_WORDS,
        lambda _: solver.solve(_factorization(3), CUBE, np.ones(3))),
    "residual-3d-matrix": (
        DimensionError, CUBE_WORDS,
        lambda _: solver.residual_with_flag(CUBE, np.ones(3), np.ones(3))),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks_raise_their_ndlu_error(case, tmp_path):
    error, words, call = INPUT_CHECKS[case]
    with pytest.raises(error, match=words):
        call(tmp_path)


def test_integer_matrix_is_cast_and_solves_exactly():
    # a 24 x 12 grid Laplacian held as int64: core.as_csr casts it to
    # float64 before it is factored
    nx, ny = 24, 12
    lap = lambda m: sp.diags([-1, 2, -1], [-1, 0, 1], shape=(m, m),
                             dtype=np.int64)
    a = (sp.kron(sp.identity(ny, dtype=np.int64), lap(nx))
         + sp.kron(lap(ny), sp.identity(nx, dtype=np.int64))).tocsr()
    assert a.dtype == np.int64
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    tree = dissection.build_dissection(a, np.column_stack([xs.ravel(),
                                                           ys.ravel()]))
    fac = factor.factorize(a, tree, 1e-4, _exact(a.shape[0]))
    assert fac.dtype == np.float64 and fac.symmetric
    b = np.random.default_rng(7).standard_normal(a.shape[0])
    _, report = solver.solve(fac, a, b)
    assert report.residual <= 1e-13
