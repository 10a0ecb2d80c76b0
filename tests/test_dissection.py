import numpy as np
import pytest
import scipy.sparse as sp

from ndlu.core import Permutation, SparseMatrix
from ndlu.dissection import (
    JUNCTION,
    REGULAR,
    Graph,
    Segment,
    build_dissection,
    degree_bias,
    find_separator,
    split_crossed_segments,
)
from ndlu.errors import ConfigError, DegenerateSeparatorError, NonFiniteError


def fill_in_count(graph, order):
    """New edges created by symbolic elimination in the given order; the
    oracle for how good an ordering is."""
    fwd = order.fwd if isinstance(order, Permutation) else np.asarray(order)
    adj = [set(map(int, graph.neighbors(v))) for v in range(graph.n)]
    eliminated = np.zeros(graph.n, dtype=bool)
    fill = 0
    for v in map(int, fwd):
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


def grid_graph(nx, ny):
    """5-point grid graph with unit spacing, vertex k = j*nx + i."""
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
    a = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    return Graph.from_matrix(a + sp.identity(n), coords)


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
        assert g.degree(4) == 4
        assert g.degree(0) == 2


class TestDegreeBias:
    def setup_method(self):
        pts = np.array([(0.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, 1.0)])
        adj = sp.csr_matrix(np.ones((4, 4)) - np.eye(4))
        self.g = Graph.from_matrix(adj, pts)

    def test_parallel_step_and_drift(self):
        d = np.array([0.0, 1.0])
        # step 0 -> 1 along d, u relative to center 2 also along d
        assert degree_bias(self.g, 1, 0, 2, d) == pytest.approx(1.1)

    def test_perpendicular_step_at_center(self):
        d = np.array([0.0, 1.0])
        # u == c kills the drift term; step 1 -> ... use u=c case
        val = degree_bias(self.g, 0, 3, 0, np.array([1.0, 0.0]))
        assert val == pytest.approx(-1.0 / np.sqrt(2.0))

    def test_antiparallel_step(self):
        d = np.array([0.0, 1.0])
        assert degree_bias(self.g, 2, 1, 2, d) == pytest.approx(-1.0)


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
        segments = {seg.id: seg for seg in segs}
        seg_of = {int(v): seg.id for seg in segs for v in seg.vertices}
        events = split_crossed_segments(self.g, segments, seg_of, walk, 2, {})
        return [seg for seg in segments.values() if not seg.children], events

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
        assert np.array_equal(tree.order.fwd, np.arange(9))

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
        assert sorted(tree.order.fwd.tolist()) == list(range(256))
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

    def test_arrow_pattern_zero_sibling_blocks(self):
        g = grid_graph(16, 16)
        tree = build_dissection(g, None, leaf_size=16)
        a = sp.csr_matrix(
            (np.ones(len(g.indices)), g.indices, g.indptr), shape=(g.n, g.n)
        )
        b = a[tree.order.fwd][:, tree.order.fwd].toarray()
        for node in tree.nodes:
            if node.is_leaf or len(node.children) < 2:
                continue
            s1 = slice(*node.children[0].span)
            s2 = slice(*node.children[1].span)
            assert np.all(b[s1, s2] == 0)
            assert np.all(b[s2, s1] == 0)

    def test_segments_partition_separators(self):
        g = grid_graph(32, 32)
        tree = build_dissection(g, None, leaf_size=16)
        for stage in range(1, tree.levels + 1):
            segs = tree.segments_at_stage(stage)
            seen = np.concatenate([s.vertices for s in segs])
            expected = np.concatenate(
                [s.order for s in tree.separators if s.level <= stage]
            )
            assert sorted(seen.tolist()) == sorted(expected.tolist())

    def test_fig3_junction_in_root_separator(self):
        # on a 15x15 grid with small leaves the level-2 separators cross the
        # root separator, leaving a junction piece between two regular pieces
        g = grid_graph(15, 15)
        tree = build_dissection(g, None, leaf_size=16)
        root_segs = [s for s in tree.segments.values() if s.owner == (1, 0)]
        junctions = [s for s in root_segs if s.kind == JUNCTION]
        assert junctions, "expected the root separator to be crossed"
        segs_final = [
            s for s in tree.segments_at_stage(tree.levels) if s.owner == (1, 0)
        ]
        assert any(s.kind == JUNCTION for s in segs_final)
        # pieces partition the separator
        allv = np.concatenate([s.vertices for s in segs_final])
        assert sorted(allv.tolist()) == sorted(tree.separators[0].order.tolist())

    def test_disconnected_input_two_components(self):
        a = sp.block_diag(
            [sp.identity(4) * 2 - sp.diags([np.ones(3), np.ones(3)], [1, -1])] * 2
        ).tocsr()
        coords = np.column_stack([np.tile(np.arange(4.0), 2), np.repeat([0.0, 5.0], 4)])
        tree = build_dissection(SparseMatrix(a), coords, leaf_size=2)
        assert len(tree.roots) == 2
        assert sorted(tree.order.fwd.tolist()) == list(range(8))

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
        assert np.array_equal(build_dissection(g, None, leaf_size=np.int64(16)).order.fwd,
                              build_dissection(g, None, leaf_size=16).order.fwd)

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
        order = Permutation(np.arange(n))
        assert fill_in_count(g, order) == (n - 1) * (n - 2) // 2

    def test_star_leaves_first(self):
        n = 12
        g = star_graph(n)
        order = Permutation(np.array(list(range(1, n)) + [0]))
        assert fill_in_count(g, order) == 0

    def test_nested_beats_natural_on_grid(self):
        g = grid_graph(4, 4)
        tree = build_dissection(g, None, leaf_size=2)
        natural = fill_in_count(g, np.arange(g.n))
        nested = fill_in_count(g, tree.order)
        assert nested <= natural
