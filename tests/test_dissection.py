import copy

import numpy as np
import pytest
import scipy.sparse as sp

from ndlu import dissection, factor, solver
from ndlu.core import SparseMatrix
from ndlu.dissection import (
    JUNCTION,
    REGULAR,
    Graph,
    Segment,
    _greedy_edge_cover,
    _median_and_quartiles,
    _step_bias,
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


def make_line_segment(owner, verts):
    v = np.asarray(verts, dtype=np.int64)
    return Segment(id=(owner[0], owner[1], owner[0], 0), owner=owner,
                   vertices=v)


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
        for k, seg in enumerate(segments):
            if not seg.children:
                assert np.all(seg_of[seg.vertices] == k)
        return [seg for seg in segments if not seg.children], events

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
        assert all(s.parent == seg.id for s in updated)

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
    def test_small_graph_single_leaf(self):
        g = grid_graph(3, 3)
        tree = build_dissection(g, None, leaf_size=16)
        assert len(tree.leaves) == 1
        assert tree.separators == []
        assert np.array_equal(tree.order, np.arange(9))

    def test_7x7_leaf16_splits_21_21(self):
        g = grid_graph(7, 7)
        tree = build_dissection(g, None, leaf_size=16)
        root = tree.roots[0]
        assert root.separator.size == 7
        sides = sorted(c.size for c in root.children)
        assert sides == [21, 21]

    def test_order_is_permutation_with_separators_last(self):
        g = grid_graph(16, 16)
        tree = build_dissection(g, None, leaf_size=16)
        assert sorted(tree.order.tolist()) == list(range(256))
        for node in tree.nodes:
            if node.is_leaf:
                continue
            sep_positions = tree.position[node.separator.order]
            child_end = max(c.span[1] for c in node.children)
            assert sep_positions.min() == child_end
            assert sep_positions.max() == node.span[1] - 1

    def test_no_edges_between_sides_64x64(self):
        g = grid_graph(64, 64)
        tree = build_dissection(g, None, leaf_size=64)
        assert tree.validate_separation()

    def test_vertex_moved_across_a_separator_fails_validation(self):
        a, coords = grid_matrix(32, 32)
        tree = build_dissection(a, coords, leaf_size=16)
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
        tree = build_dissection(a, coords, leaf_size=16)
        leaves = [node for node in tree.leaves if node.depth == 2]
        assert len(leaves) == 1
        assert np.array_equal(leaves[0].leaf_vertices, subsets[1])
        assert np.array_equal(np.sort(tree.order), np.arange(a.shape[0]))
        assert tree.validate_separation()
        fac = factor.factorize(a, tree, 1e-4,
                               factor.FactorOptions(min_sparsify_size=2000))
        b = np.random.default_rng(0).standard_normal(a.shape[0])
        assert solver.solve(fac, a, b)[1].residual <= 1e-12

    def test_arrow_pattern_zero_sibling_blocks(self):
        g = grid_graph(16, 16)
        tree = build_dissection(g, None, leaf_size=16)
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

    def test_segments_partition_separators(self):
        # on the exact path the factorization starts from the segments no
        # split replaced; after each level's merge the active units are
        # segments of the separators not yet eliminated, each holding the
        # nested positions of its vertices, and together they hold all of
        # those separators' positions
        a, coords = grid_matrix(32, 32)
        tree = build_dissection(a, coords, leaf_size=16)
        assert tree.events
        state, _ = factor.eliminate_interiors(a, tree)

        def check(remaining):
            for uid, unit in state.units.items():
                vertices = tree.segments[uid].vertices
                assert np.array_equal(unit.pos,
                                      np.sort(tree.position[vertices]))
            held = [unit.pos for unit in state.units.values()]
            kept = [tree.position[s.order] for s in tree.separators
                    if s.level <= remaining]
            none = [np.empty(0, dtype=np.int64)]
            assert np.array_equal(np.sort(np.concatenate(held + none)),
                                  np.sort(np.concatenate(kept + none)))

        check(tree.levels)
        for level in range(tree.levels, 0, -1):
            state.level = level
            factor.eliminate_segments(state, level)
            factor.merge_segments(state, tree, level)
            check(level - 1)
        assert not state.units

    def test_fig3_junction_in_root_separator(self):
        # on a 15x15 grid with small leaves the level-2 separators cross the
        # root separator, leaving a junction piece between two regular pieces
        g = grid_graph(15, 15)
        tree = build_dissection(g, None, leaf_size=16)
        root_segs = [s for s in tree.segments.values() if s.owner == (1, 0)]
        junctions = [s for s in root_segs if s.kind == JUNCTION]
        assert junctions, "expected the root separator to be crossed"
        segs_final = [
            s for s in tree.segments.values()
            if not s.children and s.owner == (1, 0)
        ]
        assert any(s.kind == JUNCTION for s in segs_final)
        # pieces partition the separator
        allv = np.concatenate([s.vertices for s in segs_final])
        assert sorted(allv.tolist()) == sorted(tree.separators[0].order.tolist())

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
            build_dissection(grid_graph(8, 8), None, leaf_size=16)

    def test_disconnected_input_two_components(self):
        a = sp.block_diag(
            [sp.identity(4) * 2 - sp.diags([np.ones(3), np.ones(3)], [1, -1])] * 2
        ).tocsr()
        coords = np.column_stack([np.tile(np.arange(4.0), 2), np.repeat([0.0, 5.0], 4)])
        tree = build_dissection(SparseMatrix(a), coords, leaf_size=2)
        assert len(tree.roots) == 2
        assert sorted(tree.order.tolist()) == list(range(8))

    @pytest.mark.parametrize("leaf_size", [0, -1])
    def test_leaf_size_below_one_rejected(self, leaf_size):
        with pytest.raises(ConfigError):
            build_dissection(grid_graph(4, 4), None, leaf_size=leaf_size)

    @pytest.mark.parametrize("leaf_size", [None, "8", 2.5, True])
    def test_leaf_size_that_is_not_an_int_rejected(self, leaf_size):
        with pytest.raises(ConfigError):
            build_dissection(grid_graph(4, 4), None, leaf_size=leaf_size)

    def test_numpy_int_leaf_size_accepted(self):
        g = grid_graph(8, 8)
        assert np.array_equal(
            build_dissection(g, None, leaf_size=np.int64(16)).order,
            build_dissection(g, None, leaf_size=16).order)

    def test_non_finite_coordinates_rejected(self):
        a = sp.identity(3, format="csr")
        coords = np.array([(0.0, 0.0), (np.nan, 1.0), (1.0, 0.0)])
        with pytest.raises(NonFiniteError):
            build_dissection(SparseMatrix(a), coords)

    def test_leaf_sizes_bounded(self):
        g = grid_graph(40, 40)
        tree = build_dissection(g, None, leaf_size=32)
        interior_max = max(len(n.leaf_vertices) for n in tree.leaves)
        # leaves stop either at the size bound or at the depth bound
        depth_capped = [n for n in tree.leaves if n.depth > tree.levels]
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

    def test_nested_beats_natural_on_grid(self):
        g = grid_graph(4, 4)
        tree = build_dissection(g, None, leaf_size=2)
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
