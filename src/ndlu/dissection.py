"""Geometric nested dissection with hierarchical separator segments.

Builds a binary dissection tree over the adjacency graph of a sparse matrix
whose vertices carry 2D coordinates. Each internal node stores a separator
found by a directional walk from the subset's center; separators are kept in
walk order so that the pieces created when deeper separators cross them are
contiguous index ranges. The tree records every such split as an event, which
the factorization later undoes level by level when it merges segments back
together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .core import Permutation, as_csr
from .errors import (ConfigError, DegenerateSeparatorError, DimensionError,
                     NonFiniteError)

REGULAR = "regular"
JUNCTION = "junction"

# weight of the center-drift term of the walk's step bias
THETA = 0.1
DEFAULT_LEAF_SIZE = 64


class Graph:
    """Symmetrized adjacency structure of a sparse matrix plus coordinates.

    Self-loops are dropped; an edge (i, j) always appears in both rows.
    """

    def __init__(self, indptr, indices, coords):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.coords = np.asarray(coords, dtype=np.float64)
        self.n = len(self.indptr) - 1
        if self.coords.shape != (self.n, 2):
            raise DimensionError(
                f"coords shape {self.coords.shape} does not match {self.n} vertices"
            )
        if not np.all(np.isfinite(self.coords)):
            bad = int(np.flatnonzero(~np.isfinite(self.coords).all(axis=1))[0])
            raise NonFiniteError(f"vertex {bad} has non-finite coordinates")

    @classmethod
    def from_matrix(cls, a, coords):
        csr = as_csr(a)
        if csr.shape[0] != csr.shape[1]:
            raise DimensionError(f"adjacency needs a square matrix, got {csr.shape}")
        pattern = csr.copy()
        pattern.data = np.ones_like(pattern.data, dtype=np.int8)
        sym = (pattern + pattern.T).tocsr()
        sym.setdiag(0)
        sym.eliminate_zeros()
        return cls(sym.indptr, sym.indices, coords)

    def neighbors(self, v):
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v):
        return int(self.indptr[v + 1] - self.indptr[v])


@dataclass
class Segment:
    """A contiguous run of a separator's walk order.

    id is (owner level, owner index, creating level, ordinal); the root
    segment of a separator uses the separator's own level as creating level.
    """

    id: tuple
    owner: tuple
    vertices: np.ndarray
    kind: str = REGULAR
    parent: tuple | None = None
    children: tuple = ()

    @property
    def size(self):
        return len(self.vertices)


@dataclass
class Separator:
    level: int
    index: int
    order: np.ndarray

    @property
    def size(self):
        return len(self.order)

    @property
    def key(self):
        return (self.level, self.index)


@dataclass
class SplitEvent:
    level: int
    parent: tuple
    children: tuple


@dataclass
class TreeNode:
    depth: int
    span: tuple = (0, 0)
    separator: Separator | None = None
    children: list = field(default_factory=list)
    leaf_vertices: np.ndarray | None = None

    @property
    def is_leaf(self):
        return self.separator is None

    @property
    def size(self):
        return self.span[1] - self.span[0]


def _step_bias(xu, xv, xc, direction):
    """(bias, step alignment) of stepping from the point xv to xu; xc is the
    walk's center point, or None when xu is the center itself."""
    sx, sy = xu[0] - xv[0], xu[1] - xv[1]
    ns = math.hypot(sx, sy)
    align = 0.0 if ns == 0.0 else (sx * direction[0] + sy * direction[1]) / ns
    if xc is None:
        return align, align
    ox, oy = xu[0] - xc[0], xu[1] - xc[1]
    no = math.hypot(ox, oy)
    drift = 0.0 if no == 0.0 else (ox * direction[0] + oy * direction[1]) / no
    return align + THETA * drift, align


def degree_bias(graph, u, v, c, direction):
    """Directional preference for stepping from v to u while walking toward
    `direction`: alignment of the step plus THETA times alignment of u
    relative to the walk's center c. Both terms are cosines in [-1, 1]."""
    xc = None if u == c else graph.coords[c]
    return _step_bias(graph.coords[u], graph.coords[v], xc, direction)[0]


def _walk_arm(graph, in_subset, visited, c, start, direction, max_steps):
    """Extend a walk from `start` by repeatedly taking the admissible neighbor
    with the largest degree bias. Stops when no neighbor remains, when the
    best bias is <= 0, or when the best step itself points sideways or
    backward (bias kept positive only by the center-drift term)."""
    arm = []
    v = start
    coords = graph.coords
    # tuples index faster than arrays; their items are the same float64s
    xc = tuple(coords[c])
    direction = tuple(direction)
    while len(arm) < max_steps:
        best_u = -1
        best_d = -np.inf
        best_align = 0.0
        xv = coords[v]
        for u in graph.neighbors(v):
            if not in_subset[u] or u in visited:
                continue
            d, align = _step_bias(coords[u], xv,
                                  None if u == c else xc, direction)
            if d > best_d or (d == best_d and u < best_u):
                best_u, best_d, best_align = u, d, align
        if best_u < 0 or best_d <= 0.0 or best_align <= 0.0:
            break
        arm.append(best_u)
        visited.add(best_u)
        v = best_u
    return arm


def find_separator(graph, subset, in_subset=None):
    """Walk a separator through `subset` (array of vertex ids).

    Returns (walk, direction): the walk is a connected path of vertex ids
    through the subset's center, perpendicular to the subset's long side.
    The long side is judged by interquartile coordinate extents rather than
    the bounding box: on non-convex domains a subset can carry a thin arm
    that stretches the box along an axis most of its vertices never reach,
    and cutting across the arm's axis would walk the full length of the
    dense part. Raises DegenerateSeparatorError when the center has no
    admissible neighbor at all.
    """
    subset = np.asarray(subset, dtype=np.int64)
    n = len(subset)
    if n < 3:
        raise DegenerateSeparatorError(f"subset of {n} vertices is too small to split")
    pts = graph.coords[subset]
    median = np.median(pts, axis=0)
    dist2 = ((pts - median) ** 2).sum(axis=1)
    c = int(subset[np.lexsort((subset, dist2))[0]])

    lo_q, hi_q = np.percentile(pts, [25.0, 75.0], axis=0)
    width = float(hi_q[0] - lo_q[0])
    height = float(hi_q[1] - lo_q[1])
    direction = np.array([1.0, 0.0]) if width < height else np.array([0.0, 1.0])

    own_mask = in_subset is None
    if own_mask:
        in_subset = np.zeros(graph.n, dtype=bool)
        in_subset[subset] = True

    if not any(in_subset[u] for u in graph.neighbors(c)):
        if own_mask:
            in_subset[subset] = False
        raise DegenerateSeparatorError(f"center vertex {c} is isolated in its subset")

    cap = max(1, math.ceil(4.0 * math.sqrt(n)))
    visited = {c}
    forward = _walk_arm(graph, in_subset, visited, c, c, direction, cap)
    backward = _walk_arm(
        graph, in_subset, visited, c, c, -direction, cap - len(forward)
    )
    walk = np.array(backward[::-1] + [c] + forward, dtype=np.int64)
    if own_mask:
        in_subset[subset] = False
    return walk, direction


def _side_values(graph, vertices, walk, direction):
    """Signed side of each vertex relative to the walk: projection of the
    offset from the nearest walk vertex onto the walk's left normal."""
    normal = np.array([-direction[1], direction[0]])
    tree = cKDTree(graph.coords[walk])
    _, nearest = tree.query(graph.coords[vertices])
    offset = graph.coords[vertices] - graph.coords[walk[nearest]]
    return offset @ normal


def _subset_edges(graph, vertices, local_of):
    """Edges of the induced subgraph in local indices, as (u, w) arrays."""
    if len(vertices) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    starts = graph.indptr[vertices]
    deg = graph.indptr[vertices + 1] - starts
    total = int(deg.sum())
    src = np.repeat(np.arange(len(vertices)), deg)
    offsets = np.arange(total) - np.repeat(np.cumsum(deg) - deg, deg)
    dst = local_of[graph.indices[np.repeat(starts, deg) + offsets]]
    keep = dst >= 0
    return src[keep], dst[keep]


def _components_of(vertices, src, dst):
    g = sp.csr_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)),
        shape=(len(vertices), len(vertices)),
    )
    return connected_components(g, directed=False)


def split_subset(graph, subset, walk, direction, scratch_local):
    """Partition subset \\ walk into two sides with no connecting edges.

    Components of the remainder go to the side where most of their vertices
    lie geometrically. If removing the walk does not disconnect the geometric
    sides (irregular meshes), endpoints of side-crossing edges are greedily
    absorbed into the separator first. Returns (side1, side2, extra) where
    extra lists absorbed vertices paired with the walk position they extend.
    """
    in_walk = np.zeros(graph.n, dtype=bool)
    in_walk[walk] = True
    rest = subset[~in_walk[subset]]
    extra = []

    if len(rest) == 0:
        return rest, rest.copy(), extra

    side = _side_values(graph, rest, walk, direction)

    local_of = scratch_local
    local_of[rest] = np.arange(len(rest))
    src, dst = _subset_edges(graph, rest, local_of)

    crossing = np.flatnonzero((side[src] * side[dst] < 0) & (src < dst))
    if len(crossing):
        cover = _greedy_edge_cover(rest, src[crossing], dst[crossing])
        tree = cKDTree(graph.coords[walk])
        _, anchors = tree.query(graph.coords[cover])
        for v, a in sorted(zip(cover, anchors), key=lambda t: (t[1], t[0])):
            extra.append((int(a), int(v)))
        in_walk[cover] = True
        rest = subset[~in_walk[subset]]
        side = _side_values(graph, rest, walk, direction)
        local_of[subset] = -1
        local_of[rest] = np.arange(len(rest))
        src, dst = _subset_edges(graph, rest, local_of)

    ncomp, labels = _components_of(rest, src, dst)
    side1_parts, side2_parts = [], []
    n1 = n2 = 0
    comp_order = np.argsort([rest[labels == k].min() for k in range(ncomp)])
    for k in comp_order:
        members = rest[labels == k]
        lean = float(side[labels == k].sum())
        if lean < 0 or (lean == 0 and n1 <= n2):
            side1_parts.append(members)
            n1 += len(members)
        else:
            side2_parts.append(members)
            n2 += len(members)

    local_of[subset] = -1
    empty = np.empty(0, dtype=np.int64)
    v1 = np.concatenate(side1_parts) if side1_parts else empty
    v2 = np.concatenate(side2_parts) if side2_parts else empty
    return v1, v2, extra


def _greedy_edge_cover(rest, src, dst):
    """Vertices covering all given edges, chosen by descending incidence."""
    edges = set(zip(src.tolist(), dst.tolist()))
    chosen = []
    while edges:
        count = {}
        for u, w in edges:
            count[u] = count.get(u, 0) + 1
            count[w] = count.get(w, 0) + 1
        pick = min(count, key=lambda v: (-count[v], rest[v]))
        chosen.append(int(rest[pick]))
        edges = {e for e in edges if pick not in e}
    return np.array(sorted(chosen), dtype=np.int64)


def _insert_extras(walk, extra):
    """Insert absorbed vertices just after their anchor walk position."""
    if not extra:
        return walk
    out = list(walk)
    for anchor, v in sorted(extra, key=lambda t: (-t[0], t[1])):
        out.insert(anchor + 1, v)
    return np.array(out, dtype=np.int64)


def split_crossed_segments(graph, segments, seg_of_vertex, walk, level, counters):
    """Split the segments crossed by a new separator walk; returns the events.

    A segment is crossed when a walk endpoint is adjacent to some of its
    vertices; those vertices (closed to a contiguous run) become a junction
    segment and the rest of the segment splits around it. Junction segments
    are never split further. The children are added to `segments` (id ->
    Segment) and take over their vertices in `seg_of_vertex`; `counters`
    numbers the children per owner and level.
    """
    events = []
    endpoints = [int(walk[0])] if len(walk) == 1 else [int(walk[0]), int(walk[-1])]
    for e in endpoints:
        hits = {}
        for u in graph.neighbors(e):
            sid = seg_of_vertex.get(int(u))
            if sid is not None and segments[sid].kind == REGULAR:
                hits.setdefault(sid, []).append(int(u))
        for sid in sorted(hits):
            parent = segments[sid]
            pos = np.flatnonzero(np.isin(parent.vertices, hits[sid]))
            lo, hi = int(pos.min()), int(pos.max()) + 1
            children = _split_one(parent, lo, hi, level, counters)
            parent.children = tuple(c.id for c in children)
            events.append(SplitEvent(level=level, parent=parent.id, children=parent.children))
            for c in children:
                segments[c.id] = c
                for v in c.vertices:
                    seg_of_vertex[int(v)] = c.id
    return events


def _split_one(parent, lo, hi, level, counters):
    """Children of `parent` split at local positions [lo, hi): left regular,
    junction, right regular, empties dropped."""
    l, i = parent.owner
    children = []
    for a, b, kind in ((0, lo, REGULAR), (lo, hi, JUNCTION), (hi, parent.size, REGULAR)):
        if b <= a:
            continue
        k = counters.get((l, i, level), 0)
        counters[(l, i, level)] = k + 1
        children.append(
            Segment(
                id=(l, i, level, k),
                owner=parent.owner,
                vertices=parent.vertices[a:b],
                kind=kind,
                parent=parent.id,
            )
        )
    return children


class DissectionTree:
    """Output of build_dissection: nested order, separators, segments, events."""

    def __init__(self, graph, leaf_size):
        self.graph = graph
        self.leaf_size = leaf_size
        self.levels = 0
        self.roots = []
        self.nodes = []
        self.leaves = []
        self.separators = []
        self.segments = {}
        self.events = []
        self.order = None
        self.position = None

    def segments_at_stage(self, stage):
        """Segments alive at the start of elimination stage `stage`: leaves of
        the split forest once only crossings at levels <= stage are applied,
        for separators not yet eliminated (level <= stage)."""
        out = []
        for sep in self.separators:
            if sep.level > stage:
                continue
            root = self.segments[(sep.level, sep.index, sep.level, 0)]
            stack = [root]
            while stack:
                seg = stack.pop()
                kids = [self.segments[c] for c in seg.children]
                if kids and kids[0].id[2] <= stage:
                    stack.extend(reversed(kids))
                else:
                    out.append(seg)
        return out

    def validate_separation(self):
        """Check that no edge joins the two sides of any internal node."""
        g = self.graph
        for node in self.nodes:
            if node.is_leaf or len(node.children) < 2:
                continue
            a, b = node.children[0].span, node.children[1].span
            side = np.zeros(g.n, dtype=np.int8)
            side[self.order.fwd[a[0] : a[1]]] = 1
            side[self.order.fwd[b[0] : b[1]]] = 2
            for v in self.order.fwd[a[0] : a[1]]:
                nb = side[g.neighbors(v)]
                if np.any(nb == 2):
                    return False
        return True


class _Builder:
    """Level-by-level construction. Nodes are processed breadth-first so that
    every segment split is caused by a separator at a level >= the level that
    created the segment being split; merges then undo cleanly stage by stage."""

    def __init__(self, graph, leaf_size):
        self.g = graph
        self.leaf_size = leaf_size
        n = graph.n
        # Nearest-level depth keeps average leaf sizes centered on leaf_size
        # and, unlike truncation, does not flip the tree depth between two
        # meshes whose sizes straddle a power-of-two multiple of leaf_size —
        # mesh generators target exactly those sizes, and equal-size runs
        # should get structurally comparable trees.
        self.levels = max(1, int(math.floor(math.log2(max(2.0, n / leaf_size)) + 0.5)))
        self.in_subset = np.zeros(n, dtype=bool)
        self.scratch_local = np.full(n, -1, dtype=np.int64)
        self.seg_of_vertex = {}
        self.sep_count_at = {}
        self.split_counters = {}
        self.tree = DissectionTree(graph, leaf_size)

    def build(self):
        g = self.g
        comp_n, labels = connected_components(
            sp.csr_matrix(
                (np.ones(len(g.indices), dtype=np.int8), g.indices, g.indptr),
                shape=(g.n, g.n),
            ),
            directed=False,
        )
        starts = np.full(comp_n, g.n, dtype=np.int64)
        for v in range(g.n - 1, -1, -1):
            starts[labels[v]] = v

        queue = []
        for k in np.argsort(starts):
            members = np.flatnonzero(labels == k).astype(np.int64)
            node = TreeNode(depth=1)
            self.tree.roots.append(node)
            queue.append((node, members))

        head = 0
        while head < len(queue):
            node, subset = queue[head]
            head += 1
            self.tree.nodes.append(node)
            for child, side in self._process(node, subset):
                queue.append((child, side))

        tree = self.tree
        tree.levels = self.levels
        offset = 0
        parts = []
        for root in tree.roots:
            part = self._emit(root, offset)
            offset += len(part)
            parts.append(part)
        fwd = np.concatenate(parts) if parts else np.empty(0, np.int64)
        tree.order = Permutation(fwd)
        tree.position = tree.order.inverse().fwd
        return tree

    def _process(self, node, subset):
        """Split one node; returns (child node, child subset) pairs."""
        g = self.g
        tree = self.tree
        depth = node.depth

        if depth > self.levels or len(subset) <= self.leaf_size or len(subset) < 3:
            node.leaf_vertices = np.sort(subset)
            tree.leaves.append(node)
            return []

        self.in_subset[subset] = True
        try:
            walk, direction = find_separator(g, subset, in_subset=self.in_subset)
        except DegenerateSeparatorError:
            self.in_subset[subset] = False
            node.leaf_vertices = np.sort(subset)
            tree.leaves.append(node)
            return []
        v1, v2, extra = split_subset(g, subset, walk, direction, self.scratch_local)
        self.in_subset[subset] = False
        sep_order = _insert_extras(walk, extra)

        index = self.sep_count_at.get(depth, 0)
        self.sep_count_at[depth] = index + 1
        sep = Separator(level=depth, index=index, order=sep_order)
        tree.separators.append(sep)
        root_seg = Segment(id=(depth, index, depth, 0), owner=sep.key,
                           vertices=sep_order)
        tree.segments[root_seg.id] = root_seg
        tree.events += split_crossed_segments(
            g, tree.segments, self.seg_of_vertex, walk, depth, self.split_counters
        )
        for v in sep_order:
            self.seg_of_vertex[int(v)] = root_seg.id
        node.separator = sep

        out = []
        for side in (v1, v2):
            if len(side) == 0:
                continue
            child = TreeNode(depth=depth + 1)
            node.children.append(child)
            out.append((child, side))
        return out

    def _emit(self, node, base):
        """Assign nested-order spans: children's vertices, then the separator."""
        if node.is_leaf:
            node.span = (base, base + len(node.leaf_vertices))
            return node.leaf_vertices
        parts = []
        cursor = base
        for child in node.children:
            part = self._emit(child, cursor)
            cursor += len(part)
            parts.append(part)
        parts.append(node.separator.order)
        node.span = (base, cursor + node.separator.size)
        return np.concatenate(parts)


def build_dissection(matrix, coords, leaf_size=DEFAULT_LEAF_SIZE):
    """Build the dissection tree for a sparse matrix with vertex coordinates."""
    if leaf_size < 1:
        raise ConfigError(f"leaf_size must be at least 1, got {leaf_size}")
    graph = matrix if isinstance(matrix, Graph) else Graph.from_matrix(matrix, coords)
    return _Builder(graph, leaf_size).build()
