import copy

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, cKDTree

from ndlu import assembly, dissection, factor, solver
from ndlu.core import SparseMatrix
from ndlu.dissection import (
    JUNCTION,
    REGULAR,
    Graph,
    Segment,
    _greedy_edge_cover,
    _median_and_quartiles,
    _Views,
    _walk_arm,
    build_dissection,
    find_separator,
    split_crossed_segments,
    split_subset,
)
from ndlu.errors import (ConfigError, DegenerateSeparatorError, DimensionError,
                         NonFiniteError)


def fill_in_count(graph, order):
    """New edges created by symbolic elimination in the given order; the
    oracle for how good an ordering is."""
    adj = [set(map(int, graph.neighbors(v))) for v in range(graph.n)]
    eliminated = np.zeros(graph.n, dtype=bool)
    fill = 0
    for v in map(int, order):
        nbrs = [u for u in adj[v] if not eliminated[u]]
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                p, q = nbrs[a], nbrs[b]
                if p not in adj[q]:
                    adj[q].add(p)
                    adj[p].add(q)
                    fill += 1
        eliminated[v] = True
    return fill


def grid_matrix(nx, ny):
    """5-point Laplacian (4 on the diagonal) of the grid with unit spacing,
    vertex k = j*nx + i, and the vertex coordinates."""
    rows, cols = [], []
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            if i + 1 < nx:
                rows += [k, k + 1]
                cols += [k + 1, k]
            if j + 1 < ny:
                rows += [k, k + nx]
                cols += [k + nx, k]
    n = nx * ny
    a = sp.coo_matrix((-np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    return (a + 4.0 * sp.identity(n)).tocsr(), coords


def grid_graph(nx, ny):
    """5-point grid graph with unit spacing, vertex k = j*nx + i."""
    return Graph.from_matrix(*grid_matrix(nx, ny))


def dissect(monkeypatch, leaf_size, a, coords):
    """build_dissection(a, coords) with dissection.LEAF_SIZE = leaf_size."""
    monkeypatch.setattr(dissection, "LEAF_SIZE", leaf_size)
    return build_dissection(a, coords)


def star_graph(n):
    rows = [0] * (n - 1) + list(range(1, n))
    cols = list(range(1, n)) + [0] * (n - 1)
    a = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    ang = np.linspace(0, 2 * np.pi, n - 1, endpoint=False)
    coords = np.vstack([[0.0, 0.0], np.column_stack([np.cos(ang), np.sin(ang)])])
    return Graph.from_matrix(a, coords)


class TestGraph:
    def test_symmetrized_no_self_loops(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [3.0, 0.0, 1.0]]))
        g = Graph.from_matrix(a, np.zeros((3, 2)))
        assert sorted(g.neighbors(0)) == [1, 2]
        assert sorted(g.neighbors(1)) == [0]
        assert sorted(g.neighbors(2)) == [0]

    def test_degree(self):
        g = grid_graph(3, 3)
        assert len(g.neighbors(4)) == 4
        assert len(g.neighbors(0)) == 2


def _step_bias(xu, xv, xc, direction):
    """(bias, step alignment) of stepping from the point xv to xu while
    walking toward `direction` from the center point xc: the alignment of the
    step plus THETA times the alignment of xu relative to xc. Both terms are
    cosines in [-1, 1]; a zero-length vector aligns as 0. The reference for
    the bias _walk_arm computes inline."""
    sx, sy = xu[0] - xv[0], xu[1] - xv[1]
    ns = math.hypot(sx, sy)
    align = 0.0 if ns == 0.0 else (sx * direction[0] + sy * direction[1]) / ns
    ox, oy = xu[0] - xc[0], xu[1] - xc[1]
    no = math.hypot(ox, oy)
    drift = 0.0 if no == 0.0 else (ox * direction[0] + oy * direction[1]) / no
    return align + dissection.THETA * drift, align


def _walk_arm_reference(views, visited, c, direction, max_steps):
    """_walk_arm with the step bias taken from _step_bias."""
    own = views.label[c]
    xc = (views.x[c], views.y[c])
    arm = []
    v = c
    while len(arm) < max_steps:
        best_u, best_d, best_align = -1, -math.inf, 0.0
        xv = (views.x[v], views.y[v])
        for u in views.indices[views.indptr[v]:views.indptr[v + 1]]:
            if views.label[u] != own or u in visited:
                continue
            d, align = _step_bias((views.x[u], views.y[u]), xv, xc, direction)
            if d > best_d or (d == best_d and u < best_u):
                best_u, best_d, best_align = u, d, align
        if best_u < 0 or best_d <= 0.0 or best_align <= 0.0:
            break
        arm.append(best_u)
        visited.add(best_u)
        v = best_u
    return arm


class TestDegreeBias:
    """The walk's step bias: step alignment plus THETA times the alignment
    of u relative to the walk's center c."""

    def setup_method(self):
        self.pts = np.array([(0.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, 1.0)])

    def bias(self, u, v, c, direction):
        p = self.pts
        return _step_bias(p[u], p[v], p[c], direction)[0]

    def test_parallel_step_and_drift(self):
        d = np.array([0.0, 1.0])
        # step 0 -> 1 along d, u relative to center 2 also along d
        assert self.bias(1, 0, 2, d) == pytest.approx(1.1)

    def test_perpendicular_step_at_center(self):
        # u == c has no drift term
        val = self.bias(0, 3, 0, np.array([1.0, 0.0]))
        assert val == pytest.approx(-1.0 / np.sqrt(2.0))

    def test_antiparallel_step(self):
        d = np.array([0.0, 1.0])
        assert self.bias(2, 1, 2, d) == pytest.approx(-1.0)


class TestFindSeparator:
    def test_7x7_grid_center_line(self):
        g = grid_graph(7, 7)
        walk, direction = find_separator(g, np.arange(49))
        # square subset walks vertically: the full middle column
        assert np.array_equal(direction, [0.0, 1.0])
        assert sorted(walk.tolist()) == [3 + 7 * j for j in range(7)]
        assert len(walk) == 7

    def test_path_graph_single_center(self):
        n = 9
        a = sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1]).tocsr()
        coords = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        g = Graph.from_matrix(a, coords)
        walk, direction = find_separator(g, np.arange(n))
        assert np.array_equal(direction, [0.0, 1.0])
        assert walk.tolist() == [4]

    def test_triangle(self):
        a = sp.csr_matrix(np.ones((3, 3)) - np.eye(3))
        coords = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])
        g = Graph.from_matrix(a, coords)
        walk, _ = find_separator(g, np.arange(3))
        assert 1 <= len(walk) <= 2

    def test_isolated_center_degenerate(self):
        a = sp.identity(5, format="csr")
        coords = np.column_stack([np.arange(5.0), np.zeros(5)])
        g = Graph(np.zeros(6, np.int64), np.empty(0, np.int64), coords)
        with pytest.raises(DegenerateSeparatorError):
            find_separator(g, np.arange(5))

    def test_walk_is_connected_path(self):
        g = grid_graph(12, 9)
        walk, _ = find_separator(g, np.arange(12 * 9))
        for a, b in zip(walk, walk[1:]):
            assert b in g.neighbors(a)

    @pytest.mark.parametrize("subset,error,message", [
        (np.arange(-3, 46), DimensionError, r"outside \[0, 49\)"),
        (np.arange(3, 52), DimensionError, r"outside \[0, 49\)"),
        (np.arange(49).reshape(7, 7), DimensionError, r"1-D, got shape \(7, 7\)"),
        (np.arange(49.0), ConfigError, "integer vertex ids, got dtype float64"),
        (np.ones(49, dtype=bool), ConfigError, "integer vertex ids, got dtype bool"),
    ], ids=["negative", "past-the-end", "2-d", "float", "mask"])
    def test_subset_is_checked_before_its_first_use(self, subset, error, message):
        # without views the subset comes from the caller: a negative id
        # would wrap to the end of the coordinates, one >= n index past them
        with pytest.raises(error, match=message):
            find_separator(grid_graph(7, 7), subset)


def delaunay_graph(pts):
    """Graph of the Delaunay triangulation of the points."""
    tri = Delaunay(pts).simplices
    rows = np.concatenate([tri[:, 0], tri[:, 1], tri[:, 2]])
    cols = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0]])
    a = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                      shape=(len(pts), len(pts))).tocsr()
    return Graph.from_matrix(a, pts)


@pytest.mark.parametrize("lattice", [False, True])
def test_walk_arm_takes_the_steps_of_the_step_bias_reference(lattice):
    # on a lattice many biases tie, so the lowest-id rule decides steps too
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(30, 400))
        pts = (rng.integers(0, 24, size=(n, 2)) * 0.5 if lattice
               else rng.uniform(-3.0, 5.0, size=(n, 2)))
        g = delaunay_graph(np.unique(pts, axis=0))
        label = np.full(g.n, -1, dtype=np.int64)
        subset = rng.permutation(g.n)[:int(rng.integers(3, g.n + 1))]
        label[subset] = 7
        views = _Views(g, memoryview(label))
        for c in rng.choice(subset, size=4).tolist():
            for direction in [(1.0, 0.0), (0.0, 1.0), (-1.0, -0.0),
                              (-0.0, -1.0)]:
                cap = int(rng.integers(1, 40))
                visited, expected = {c}, {c}
                assert _walk_arm(views, visited, c, direction, cap) == \
                    _walk_arm_reference(views, expected, c, direction, cap)
                assert visited == expected


def make_line_segment(owner, verts):
    v = np.asarray(verts, dtype=np.int64)
    return Segment(id=(owner[0], owner[1], owner[0], 0), vertices=v)


class TestSplitBoundarySegments:
    def setup_method(self):
        # line y=0 of 9 vertices (ids 0..8) plus a vertical walk 13,22,31
        # whose lower endpoint 13 sits directly above vertex 4
        self.g = grid_graph(9, 4)

    def split(self, segs, walk):
        """(leaf segments, events) after splitting segs at the walk."""
        segments = list(segs)
        seg_of = np.full(self.g.n, -1, dtype=np.int64)
        for k, seg in enumerate(segs):
            seg_of[seg.vertices] = k
        events = split_crossed_segments(self.g, segments, seg_of, walk, 2, {})
        split = {event.parent for event in events}
        kept = [k for k, seg in enumerate(segments) if seg.id not in split]
        for k in kept:
            assert np.all(seg_of[segments[k].vertices] == k)
        return [segments[k] for k in kept], events

    def test_untouched_segment_unchanged(self):
        seg = make_line_segment((1, 0), range(9))
        walk = np.array([31, 22, 13])  # endpoint 13 is adjacent to vertex 4
        far = make_line_segment((1, 1), [8])
        updated, events = self.split([far], np.array([22]))
        assert updated == [far]
        assert events == []

    def test_central_crossing_4_1_4(self):
        seg = make_line_segment((1, 0), range(9))
        walk = np.array([31, 22, 13])
        updated, events = self.split([seg], walk)
        assert len(events) == 1
        kinds = sorted((s.kind, s.size) for s in updated)
        assert kinds == [(JUNCTION, 1), (REGULAR, 4), (REGULAR, 4)]
        junction = next(s for s in updated if s.kind == JUNCTION)
        assert junction.vertices.tolist() == [4]
        event, = events
        assert event.parent == seg.id
        assert sorted(event.children) == sorted(s.id for s in updated)

    def test_endpoint_crossing_no_empty_segments(self):
        seg = make_line_segment((1, 0), range(9))
        walk = np.array([27, 18, 9])  # endpoint 9 sits above vertex 0
        updated, events = self.split([seg], walk)
        kinds = sorted((s.kind, s.size) for s in updated)
        assert kinds == [(JUNCTION, 1), (REGULAR, 8)]
        assert all(s.size > 0 for s in updated)

    def test_junction_segment_never_resplit(self):
        seg = make_line_segment((1, 0), range(9))
        seg.kind = JUNCTION
        walk = np.array([31, 22, 13])
        updated, events = self.split([seg], walk)
        assert updated == [seg]
        assert events == []


class TestBuildDissection:
    def test_small_graph_single_leaf(self, monkeypatch):
        tree = dissect(monkeypatch, 16, *grid_matrix(3, 3))
        assert len(tree.leaves) == 1
        assert tree.separators == []
        assert np.array_equal(tree.order, np.arange(9))

    def test_7x7_leaf16_splits_21_21(self, monkeypatch):
        tree = dissect(monkeypatch, 16, *grid_matrix(7, 7))
        root = tree.roots[0]
        assert root.separator.size == 7
        sides = sorted(c.size for c in root.children)
        assert sides == [21, 21]

    def test_order_is_permutation_with_separators_last(self, monkeypatch):
        tree = dissect(monkeypatch, 16, *grid_matrix(16, 16))
        assert sorted(tree.order.tolist()) == list(range(256))
        for node in tree.nodes:
            if node.is_leaf:
                continue
            sep_positions = tree.position[node.separator.vertices]
            child_end = max(c.span[1] for c in node.children)
            assert sep_positions.min() == child_end
            assert sep_positions.max() == node.span[1] - 1

    def test_no_edges_between_sides_64x64(self):
        tree = build_dissection(*grid_matrix(64, 64))
        assert tree.validate_separation()

    def test_vertex_moved_across_a_separator_fails_validation(self, monkeypatch):
        tree = dissect(monkeypatch, 16, *grid_matrix(32, 32))
        assert tree.validate_separation()
        (s1, _), (s2, _) = (child.span for child in tree.roots[0].children)
        broken = copy.copy(tree)
        broken.order = tree.order.copy()
        broken.order[[s1, s2]] = tree.order[[s2, s1]]
        assert not broken.validate_separation()
        assert tree.validate_separation()

    def test_node_whose_walk_fails_becomes_a_leaf(self, monkeypatch):
        # calls run breadth first, so on a connected graph the second is the
        # first node at depth 2
        a, coords = grid_matrix(32, 32)
        find = dissection.find_separator
        subsets = []

        def failing(g, subset, views):
            subsets.append(np.sort(subset))
            if len(subsets) == 2:
                raise DegenerateSeparatorError("no walk")
            return find(g, subset, views)

        monkeypatch.setattr(dissection, "find_separator", failing)
        tree = dissect(monkeypatch, 16, a, coords)
        leaves = [node for node in tree.leaves if node.depth == 2]
        assert len(leaves) == 1
        assert np.array_equal(leaves[0].leaf_vertices, subsets[1])
        assert np.array_equal(np.sort(tree.order), np.arange(a.shape[0]))
        assert tree.validate_separation()
        fac = factor.factorize(a, tree, 1e-4,
                               factor.FactorOptions(min_sparsify_size=2000))
        b = np.random.default_rng(0).standard_normal(a.shape[0])
        assert solver.solve(fac, a, b)[1].residual <= 1e-12

    def test_arrow_pattern_zero_sibling_blocks(self, monkeypatch):
        tree = dissect(monkeypatch, 16, *grid_matrix(16, 16))
        g = tree.graph
        a = sp.csr_matrix(
            (np.ones(len(g.indices)), g.indices, g.indptr), shape=(g.n, g.n)
        )
        b = a[tree.order][:, tree.order].toarray()
        for node in tree.nodes:
            if node.is_leaf or len(node.children) < 2:
                continue
            s1 = slice(*node.children[0].span)
            s2 = slice(*node.children[1].span)
            assert np.all(b[s1, s2] == 0)
            assert np.all(b[s2, s1] == 0)

    def test_segments_partition_separators(self, monkeypatch):
        # on the exact path the factorization starts from the segments no
        # split event names as a parent; after each level's merge the active
        # units are segments of the separators not yet eliminated, each
        # holding the nested positions of its vertices, and together they
        # hold all of those separators' positions
        a, coords = grid_matrix(32, 32)
        tree = dissect(monkeypatch, 16, a, coords)
        assert tree.events
        state, _ = factor.eliminate_interiors(a, tree)

        def check(remaining):
            for uid, unit in state.units.items():
                vertices = tree.segments[uid].vertices
                assert np.array_equal(unit.pos,
                                      np.sort(tree.position[vertices]))
            held = [unit.pos for unit in state.units.values()]
            kept = [tree.position[s.vertices] for s in tree.separators
                    if s.id[0] <= remaining]
            none = [np.empty(0, dtype=np.int64)]
            assert np.array_equal(np.sort(np.concatenate(held + none)),
                                  np.sort(np.concatenate(kept + none)))

        check(tree.levels)
        for level in range(tree.levels, 0, -1):
            _, updates = factor.eliminate_segments(state, level)
            factor.merge_segments(state, tree, level, updates)
            check(level - 1)
        assert not state.units

    def test_fig3_junction_in_root_separator(self, monkeypatch):
        # on a 15x15 grid with small leaves the level-2 separators cross the
        # root separator, leaving a junction piece between two regular pieces
        tree = dissect(monkeypatch, 16, *grid_matrix(15, 15))
        root_segs = [s for s in tree.segments.values() if s.id[:2] == (1, 0)]
        junctions = [s for s in root_segs if s.kind == JUNCTION]
        assert junctions, "expected the root separator to be crossed"
        split = {event.parent for event in tree.events}
        segs_final = [s for s in root_segs if s.id not in split]
        assert any(s.kind == JUNCTION for s in segs_final)
        # pieces partition the separator
        allv = np.concatenate([s.vertices for s in segs_final])
        assert sorted(allv.tolist()) == sorted(tree.separators[0].vertices.tolist())

    @pytest.mark.parametrize("fault", ["repeat", "drop"])
    def test_order_that_misses_or_repeats_a_vertex_is_rejected(self, fault,
                                                               monkeypatch):
        emit = dissection._Builder._emit

        def faulty(builder, node, base):
            # a root's part is the whole order of its component
            part = emit(builder, node, base)
            faults = {"repeat": np.append(part[:-1], part[0]), "drop": part[:-1]}
            return faults[fault] if node.depth == 1 else part

        monkeypatch.setattr(dissection._Builder, "_emit", faulty)
        with pytest.raises(DimensionError):
            dissect(monkeypatch, 16, *grid_matrix(8, 8))

    def test_disconnected_input_two_components(self, monkeypatch):
        a = sp.block_diag(
            [sp.identity(4) * 2 - sp.diags([np.ones(3), np.ones(3)], [1, -1])] * 2
        ).tocsr()
        coords = np.column_stack([np.tile(np.arange(4.0), 2), np.repeat([0.0, 5.0], 4)])
        tree = dissect(monkeypatch, 2, SparseMatrix(a), coords)
        assert len(tree.roots) == 2
        assert sorted(tree.order.tolist()) == list(range(8))

    def test_graph_in_place_of_the_matrix_rejected(self):
        with pytest.raises(ConfigError, match="matrix must hold numbers"):
            build_dissection(grid_graph(4, 4), np.zeros((16, 2)))

    def test_non_finite_coordinates_rejected(self):
        a = sp.identity(3, format="csr")
        coords = np.array([(0.0, 0.0), (np.nan, 1.0), (1.0, 0.0)])
        with pytest.raises(NonFiniteError):
            build_dissection(SparseMatrix(a), coords)

    def test_large_finite_coordinates_give_the_tree_of_the_unscaled_ones(self):
        # the center search squares coordinate offsets, which at 2**1000
        # overflow unless they are first scaled by a power of two
        a, coords = grid_matrix(40, 40)
        want = build_dissection(a, coords)
        got = build_dissection(a, coords * 2.0 ** 1000)
        assert np.array_equal(got.order, want.order)
        assert got.events == want.events

    def test_leaf_sizes_bounded(self, monkeypatch):
        tree = dissect(monkeypatch, 32, *grid_matrix(40, 40))
        # leaves stop either at the size bound or at the depth bound
        for n in tree.leaves:
            if n.depth <= tree.levels:
                assert len(n.leaf_vertices) <= 32


class TestFillInCount:
    def test_star_center_first(self):
        n = 12
        g = star_graph(n)
        order = np.arange(n)
        assert fill_in_count(g, order) == (n - 1) * (n - 2) // 2

    def test_star_leaves_first(self):
        n = 12
        g = star_graph(n)
        order = np.array(list(range(1, n)) + [0])
        assert fill_in_count(g, order) == 0

    def test_nested_beats_natural_on_grid(self, monkeypatch):
        tree = dissect(monkeypatch, 2, *grid_matrix(4, 4))
        g = tree.graph
        natural = fill_in_count(g, np.arange(g.n))
        nested = fill_in_count(g, tree.order)
        assert nested <= natural


def _greedy_edge_cover_reference(edges):
    """The cover by recounting every uncovered edge before each pick."""
    edges = set(edges)
    chosen = []
    while edges:
        count = {}
        for u, w in edges:
            count[u] = count.get(u, 0) + 1
            count[w] = count.get(w, 0) + 1
        pick = min(count, key=lambda v: (-count[v], v))
        chosen.append(pick)
        edges = {e for e in edges if pick not in e}
    return sorted(chosen)


def test_greedy_edge_cover_matches_recounting_every_pick():
    rng = np.random.default_rng(3)
    for trial in range(300):
        n = int(rng.integers(2, 30))
        pairs = rng.integers(0, n, size=(int(rng.integers(1, 60)), 2))
        edges = sorted({(int(min(u, w)), int(max(u, w))) for u, w in pairs if u != w})
        if not edges:
            continue
        src, dst = (np.array(col, dtype=np.int64) for col in zip(*edges))
        cover = _greedy_edge_cover(src, dst).tolist()
        assert cover == _greedy_edge_cover_reference(edges)
        assert all(u in cover or w in cover for u, w in edges)


def test_median_and_quartiles_are_bitwise_those_of_numpy():
    rng = np.random.default_rng(4)
    for m in list(range(3, 40)) + [255, 256, 1001]:
        for pts in (rng.standard_normal((m, 2)) * 1e3,
                    rng.integers(0, 4, size=(m, 2)) * 0.1,
                    rng.uniform(size=(m, 2)) * 1e-300):
            expected = (np.median(pts, axis=0),
                        *np.percentile(pts, [25.0, 75.0], axis=0))
            for got, want in zip(_median_and_quartiles(pts), expected):
                assert got.tobytes() == want.tobytes()


def test_split_assigns_components_by_lean_then_by_size_in_lowest_vertex_order():
    # walk 0-1-2-3 along y=0; A = {4, 5, 6, 12} above it, B = {7} below;
    # C = {8} and D = {9} touch the walk's ends on y=0 and E = {10},
    # F = {11}, G = {13} are isolated on y=0, so C to G have zero lean
    pts = np.array([(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1),
                    (1, -1), (4, 0), (-1, 0), (6, 0), (7, 0), (3, 1), (8, 0)],
                   dtype=float)
    pairs = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 12), (0, 4), (1, 5),
             (2, 6), (3, 12), (1, 7), (3, 8), (0, 9)]
    rows, cols = zip(*pairs)
    a = sp.coo_matrix((np.ones(len(pairs)), (rows, cols)), shape=(14, 14))
    g = Graph.from_matrix(a, pts)
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    upper = src < g.indices
    subset = np.arange(14)[::-1]
    walk = np.array([0, 1, 2, 3])
    [(v1, v2, extra)] = split_subset(g, [(subset, walk, np.array([1.0, 0.0]))],
                                     (src[upper], g.indices[upper]))
    # A leans up (side 2, 4 vertices) and B down (side 1); C to F have no
    # lean and join side 1 while it is not the larger, so G joins side 2.
    # Each side lists its components in that order, each in subset order.
    assert v1.tolist() == [7, 8, 9, 10, 11]
    assert v2.tolist() == [12, 6, 5, 4, 13]
    assert extra == []


def _edges(g):
    """Every edge of g once, as (src, dst) with src < dst."""
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    upper = src < g.indices
    return src[upper], g.indices[upper]


def _split_reference(graph, cuts, edges):
    """split_subset by the all-vertex rule: every remaining vertex queries
    its nearest walk vertex, an edge crosses where the product of its ends'
    side values is negative, and each component leans by the float sum of
    its members' side values in subset order."""
    label = np.full(graph.n, -1, dtype=np.int64)
    for i, (subset, walk, _) in enumerate(cuts):
        label[subset] = i
        label[walk] = -1
    side = np.zeros(graph.n)
    near = np.zeros(graph.n, dtype=np.int64)
    for i, (subset, walk, direction) in enumerate(cuts):
        rest = subset[label[subset] == i]
        normal = np.array([-direction[1], direction[0]])
        pts = graph.coords[rest]
        _, near[rest] = cKDTree(graph.coords[walk]).query(pts)
        side[rest] = (pts - graph.coords[walk[near[rest]]]) @ normal
    src, dst = edges
    owner = label[src]
    inner = (owner >= 0) & (owner == label[dst])
    src, dst, owner = src[inner], dst[inner], owner[inner]
    crossing = side[src] * side[dst] < 0
    extras = [[] for _ in cuts]
    for i in np.unique(owner[crossing]):
        edge = crossing & (owner == i)
        cover = _greedy_edge_cover(src[edge], dst[edge])
        label[cover] = -1
        extras[i] = [(int(near[v]), int(v)) for v in cover]
    kept = (label[src] >= 0) & (label[dst] >= 0)
    _, comp = connected_components(
        sp.coo_matrix((np.ones(kept.sum()), (src[kept], dst[kept])),
                      shape=(graph.n, graph.n)), directed=False)
    out = []
    for i, (subset, _, _) in enumerate(cuts):
        rest = subset[label[subset] == i]
        parts = sorted((rest[comp[rest] == c] for c in np.unique(comp[rest])),
                       key=lambda members: members.min())
        sides = ([], [])
        for members in parts:
            lean = float(side[members].sum())
            n1, n2 = (sum(map(len, s)) for s in sides)
            sides[lean > 0 or (lean == 0 and n1 > n2)].append(members)
        v1, v2 = (np.concatenate(s) if s else np.empty(0, np.int64)
                  for s in sides)
        out.append((v1, v2, extras[i]))
    return out


def _assert_same_split(got, want):
    assert len(got) == len(want)
    for (v1, v2, extra), (w1, w2, wextra) in zip(got, want):
        assert v1.tolist() == w1.tolist() and v2.tolist() == w2.tolist()
        assert extra == wextra


def test_split_by_sign_matches_the_all_vertex_rule_on_hand_built_cuts():
    # cut 0: walk 0-1-2-3 along y=0. Vertex 4 sits on the walk's line and
    # has side value 0 (the band holds only y=0); through it + meets -:
    # 5 at y=2 and 6 at y=-1, so the component {4, 5, 6} leans by the sum
    # 0 + 2 - 1 > 0. Signs alone would not lean it, and the size rule would
    # then put it on side 1. 7 = {7} above the walk, 8 = {8} below it.
    # cut 1, shifted by x=100: walk 9-10-11-12 along y=0, and the edges
    # 13-14, 13-15, 15-16 cross it, so the greedy cover {13, 15} joins the
    # separator after walk positions 1 and 2, its nearest walk vertices.
    pts = np.array([(0, 0), (1, 0), (2, 0), (3, 0), (5, 0), (5, 2), (5, -1),
                    (1, 3), (2, -3),
                    (100, 0), (101, 0), (102, 0), (103, 0), (101.4, 0.5),
                    (101.4, -0.5), (102.4, -0.5), (102.6, 0.5)], dtype=float)
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (1, 7), (2, 8),
             (9, 10), (10, 11), (11, 12), (13, 14), (13, 15), (15, 16),
             (10, 13), (11, 15)]
    rows, cols = zip(*pairs)
    a = sp.coo_matrix((np.ones(len(pairs)), (rows, cols)), shape=(17, 17))
    g = Graph.from_matrix(a, pts)
    x = np.array([1.0, 0.0])
    cuts = [(np.arange(9)[::-1], np.arange(4), x),
            (np.arange(9, 17), np.arange(9, 13), x)]
    got = split_subset(g, cuts, _edges(g))
    _assert_same_split(got, _split_reference(g, cuts, _edges(g)))
    (v1, v2, extra), (w1, w2, wextra) = got
    assert (v1.tolist(), v2.tolist(), extra) == ([8], [6, 5, 4, 7], [])
    assert (w1.tolist(), w2.tolist(), wextra) == ([14], [16], [(1, 13),
                                                               (2, 15)])


def test_split_by_sign_matches_the_all_vertex_rule_on_random_levels():
    # lattice points put many vertices on their walk's line, and random
    # edges cross the walks, so zero side values, covers and components of
    # both signs are common
    rng = np.random.default_rng(5)
    for trial in range(150):
        pts, pairs, cuts, base = [], [], [], 0
        for i in range(int(rng.integers(1, 4))):
            m = int(rng.integers(6, 40))
            pts.append(rng.integers(-4, 5, size=(m, 2)) * 0.5 + [100.0 * i, 0])
            ends = rng.integers(0, m, size=(int(rng.integers(m, 3 * m)), 2))
            pairs += [(base + u, base + w) for u, w in ends if u != w]
            subset = base + rng.permutation(m)
            axis = [(1.0, 0.0), (0.0, 1.0)][int(rng.integers(2))]
            cuts.append((subset, subset[:int(rng.integers(1, 6))],
                         np.array(axis)))
            base += m
        rows, cols = zip(*pairs)
        a = sp.coo_matrix((np.ones(len(pairs)), (rows, cols)),
                          shape=(base, base))
        g = Graph.from_matrix(a, np.concatenate(pts))
        _assert_same_split(split_subset(g, cuts, _edges(g)),
                           _split_reference(g, cuts, _edges(g)))


@pytest.mark.parametrize("family,share", [
    ("laplace-aniso:d12=1,d21=0", 0.0),
    ("laplace-contrast:rho=100,seed=1", 0.0),
    ("helmholtz-poly:k=20", 0.02),
])
def test_split_queries_the_nearest_walk_vertex_only_inside_the_band(
        family, share, monkeypatch):
    # of the vertices split at every level (each subset less its walk), the
    # ones queried: none on the meshes whose walks are straight lines
    counts = {"queried": 0, "split": 0}
    side_values, split = dissection._side_values, dissection.split_subset

    def counting_side_values(graph, vertices, *args):
        counts["queried"] += len(vertices)
        return side_values(graph, vertices, *args)

    def counting_split(graph, cuts, edges):
        counts["split"] += sum(len(s) - len(w) for s, w, _ in cuts)
        return split(graph, cuts, edges)

    monkeypatch.setattr(dissection, "_side_values", counting_side_values)
    monkeypatch.setattr(dissection, "split_subset", counting_split)
    p = assembly.build_problem(family, 4096)
    build_dissection(p.matrix, p.coords)
    assert counts["split"] > 5 * p.n
    assert counts["queried"] <= share * counts["split"]
