"""Factorization and solve: exactness, accuracy under compression,
determinism, the sparsify drop bound, the Schur store's ownership check at
every pack and edge-case sizes."""

import dataclasses
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ndlu import (ConfigError, DimensionError, NdluError, NonFiniteError,
                  SingularBlockError, SparseMatrix, assembly, dissection,
                  factor, lowrank, solver)
from ndlu.dissection import JUNCTION, REGULAR, Graph
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
    f, _ = factor._unsymmetric_elimination(
        np.array(idx), np.array(nbr), self_block, rng.standard_normal((m, k)),
        rng.standard_normal((k, m)), 2, (2, 0, 2, seed), "segment")
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
        factor.compile_stages(factors())


def test_compile_accepts_eliminations_that_share_a_neighbor():
    stage, = factor.compile_stages([_elimination([0, 1], [4, 5]),
                                    _elimination([2, 3], [5, 6], 1)])
    assert stage.nbr.tolist() == [4, 5, 6]


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
    "laplace-contrast:rho=100,seed=1": 398262,
    "helmholtz:k=5": 400932,
    "helmholtz-poly:k=20": 376349,
    "laplace-aniso:d12=1,d21=0": 420939,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_segments_without_neighbors_are_eliminated_whole(family):
    p = assembly.build_problem(family, 4096)
    tree = dissection.build_dissection(p.matrix, p.coords)
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
            *coupling_out, _, _ = args  # (plan, eps) come last
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
    return state, tree.levels


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
    state, level = interiors_done
    state.pack(level)
    fault(state)
    with pytest.raises(DimensionError, match=message):
        state.pack(level)


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
    state.level = tree.levels
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
    (sparsify, remainder), skeleton = factor.sparsify_segment(state, unit,
                                                              1e-2)
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
    state.pack(0, entries=(rows, cols, dense[rows, cols]))

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


def test_ldl_diagonal_inverse_is_bitwise_the_dense_inverse():
    # an indefinite block, so Bunch-Kaufman takes 1x1 and 2x2 pivots
    b = np.random.default_rng(4).standard_normal((40, 40))
    _, d, _ = sla.ldl(b + b.T)
    pairs = np.flatnonzero(np.diagonal(d, -1))
    single = np.setdiff1d(np.arange(40), np.concatenate([pairs, pairs + 1]))
    assert pairs.size and single.size
    assert np.array_equal(factor._block_inverse(d, 40, 1, "s"),
                          np.linalg.inv(d))
    zero_pivot, singular_pair = d.copy(), d.copy()
    zero_pivot[single[0], single[0]] = 0.0
    i = pairs[0]
    singular_pair[i:i + 2, i:i + 2] = [[1.0, 2.0], [2.0, 4.0]]
    for bad in (zero_pivot, singular_pair):
        with pytest.raises(SingularBlockError, match="singular diagonal"):
            factor._block_inverse(bad, 40, 1, "s")


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


def test_median_edge_length_samples_the_whole_graph():
    # a path whose edges grow in length: its first edges are all short
    x = np.cumsum(np.arange(1001, dtype=float))
    coords = np.column_stack([x, np.zeros_like(x)])
    src = np.arange(1000)
    adj = sp.coo_matrix((np.ones(1000), (src, src + 1)), shape=(1001, 1001))
    adj = (adj + adj.T).tocsr()
    graph = Graph(adj.indptr, adj.indices, coords)
    full = factor._median_edge_length(graph)
    assert full == 500.5
    assert abs(factor._median_edge_length(graph, cap=100) - full) <= 10


def _store(dense, slots, ids, symmetric, level):
    """A SchurState over units holding the given slots of dense, packed for
    level."""
    state = factor.SchurState(len(dense), np.float64, symmetric, ids.values())
    for name, pos in slots.items():
        state.add_unit(ids[name], np.array(pos), "regular")
    rows, cols = np.nonzero(dense)
    state.pack(level, entries=(rows, cols, dense[rows, cols]))
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
    # between C and D, which are not coupled in the matrix, so the pack must
    # have preallocated it. C and D then merge into P, whose self block must
    # be the dense Schur complement of A and B.
    ids = {"A": (2, 0, 2, 0), "B": (2, 1, 2, 0), "C": (1, 0, 1, 1),
           "D": (1, 0, 1, 2), "P": (1, 0, 1, 0)}
    slots = {"A": [0, 1], "B": [2, 3], "C": [4, 5], "D": [6, 7]}
    dense = _coupled(slots, [("A", "C"), ("A", "D"), ("B", "D")], symmetric)
    state = _store(dense, slots, ids, symmetric, 2)
    factors = factor.eliminate_segments(state, 2)
    assert [list(f.nbr) for f in factors] == [[4, 5, 6, 7], [6, 7]]

    kids = [state.units[ids["C"]], state.units[ids["D"]]]
    parent = state.merge_units(kids, ids["P"], "regular")
    state.pack(1)
    schur = dense[4:, 4:] - dense[4:, :4] @ np.linalg.solve(dense[:4, :4],
                                                            dense[:4, 4:])
    got = state.gather(parent.pos, parent.pos)
    assert np.allclose(got, schur, rtol=0, atol=1e-12)


def _fill_by_loop(written, owned, r):
    """Sorted keys of written plus, unit by owned unit, every pair among its
    neighbors."""
    keys = set(written.tolist())
    for s in owned:
        nb = (written[written // r == s] % r).tolist()
        keys.update(a * r + b for a in nb for b in nb if a != s and b != s)
    return sorted(keys)


def test_every_pack_adds_the_fill_of_the_stage_loop_by_loop(problem):
    p, tree = problem
    state, _ = factor.eliminate_interiors(p.matrix, tree)
    for level in range(tree.levels, 0, -1):
        # right after a pack, the keys no elimination has written are fill
        written = state.keys[~state._pending]
        owned = [u.serial for u in state.units.values()
                 if u.owner_level == level]
        assert state.keys.tolist() == _fill_by_loop(
            written, owned, len(state.unit_ids))
        factor.eliminate_segments(state, level)
        factor.merge_segments(state, tree, level)
    assert not state.units


def test_units_of_one_stage_that_touch_are_rejected():
    ids = {"A": (2, 0, 2, 0), "B": (2, 1, 2, 0), "C": (1, 0, 1, 1)}
    slots = {"A": [0, 1], "B": [2, 3], "C": [4, 5]}
    dense = _coupled(slots, [("A", "B"), ("A", "C")], True)
    with pytest.raises(DimensionError, match="level 2"):
        _store(dense, slots, ids, True, 2)
    # the same units pack for a stage that owns only one of them
    _store(dense, slots, ids, True, 1)


def test_store_rejects_access_and_merges_it_cannot_serve():
    ids = {"A": (2, 0, 2, 0), "B": (2, 1, 2, 0), "C": (1, 0, 1, 1),
           "D": (1, 0, 1, 2), "P": (1, 0, 1, 0)}
    slots = {"A": [0, 1], "B": [2, 3], "C": [4, 5], "D": [6, 7]}
    dense = _coupled(slots, [("A", "C"), ("B", "D")], False)
    state = _store(dense, slots, ids, False, 1)
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
        factor.sparsify_segment(state, junction, 1e-4)
    factors, skeleton = factor.sparsify_segment(state, empty, 1e-4)
    assert factors == [] and skeleton.size == 0


@pytest.mark.parametrize("floor", [None, "8", -1, 2.5])
def test_factor_options_reject_a_floor_that_is_not_a_nonnegative_int(floor):
    with pytest.raises(ConfigError):
        FactorOptions(min_sparsify_size=floor)


def test_factor_options_are_checked_once_and_frozen():
    with pytest.raises(ConfigError):
        FactorOptions(min_sparsify_size=-1)
    # every segment is compressed through the one hybrid plan, and the
    # store's ownership check runs at every pack with no switch
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
    tree = dissection.build_dissection(a, p.coords)
    with pytest.raises(NonFiniteError):
        factor.factorize(a, tree, 1e-4)


def _tree(n):
    return dissection.build_dissection(*_small_system(n, True))


def _factorization(n):
    a, coords = _small_system(n, True)
    return factor.factorize(a, dissection.build_dissection(a, coords), 1e-4)


def _read_written(tmp_path, a, rhs=None):
    """read_matrix_market of a, one (0, 0) point per row of a and rhs."""
    paths = [tmp_path / "a.mtx", tmp_path / "xy.txt"]
    scipy.io.mmwrite(paths[0], sp.csr_matrix(a))
    np.savetxt(paths[1], np.zeros((a.shape[0], 2)))
    if rhs is not None:
        paths.append(tmp_path / "b.txt")
        np.savetxt(paths[2], rhs)
    return assembly.read_matrix_market(*paths)


WIDE = sp.csr_matrix(np.ones((3, 4)))
SQUARE = sp.identity(3, format="csr")


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
    "factorize-tree-size": (
        DimensionError, "tree does not match",
        lambda _: factor.factorize(SQUARE, _tree(5), 1e-4)),
    "solve-matrix-shape": (
        DimensionError, "factorization covers 5",
        lambda _: solver.solve(_factorization(5), SQUARE, np.ones(5))),
    "solve-not-a-factorization": (
        ConfigError, "needs a SpaluFactorization",
        lambda _: solver.solve(None, SQUARE, np.ones(3))),
    "residual-dimensions": (
        DimensionError, "dimensions do not match",
        lambda _: solver.residual_with_flag(SQUARE, np.ones(4), np.ones(3))),
    "dissection-coords-shape": (
        DimensionError, "coords shape",
        lambda _: dissection.build_dissection(SQUARE, np.zeros((3, 3)))),
    "dissection-non-square": (
        DimensionError, "needs a square matrix",
        lambda _: dissection.build_dissection(WIDE, np.zeros((3, 2)))),
    "read-non-square": (
        DimensionError, "expected square",
        lambda tmp: _read_written(tmp, WIDE)),
    "read-rhs-length": (
        DimensionError, "rhs length 4",
        lambda tmp: _read_written(tmp, SQUARE, np.ones(4))),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks_raise_their_ndlu_error(case, tmp_path):
    error, words, call = INPUT_CHECKS[case]
    with pytest.raises(error, match=words):
        call(tmp_path)


def test_integer_matrix_is_cast_and_solves_exactly():
    # a 24 x 12 grid Laplacian held as int64: factor._as_csr casts it to
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
