"""Geometric nested dissection with hierarchical separator segments.

Builds a binary dissection tree over the adjacency graph of a sparse matrix
whose vertices carry 2D coordinates. Each internal node stores a separator
found by a directional walk from the subset's center; separators are kept in
walk order so that the pieces created when deeper separators cross them are
contiguous index ranges. The tree records every such split as an event, which
the factorization later undoes level by level when it merges segments back
together.

The tree is built one depth at a time, so that each level costs work linear
in the vertices it holds: the walks run node by node on memoryviews of the
adjacency and coordinates, then split_subset splits every subset of the
level with one label array and one connected-components call, and finally
the separators are registered node by node. The subsets of one level share
no edge, which is what lets one labelling serve them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .core import Permutation, as_csr, check_int
from .errors import DegenerateSeparatorError, DimensionError, NonFiniteError

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
    """(bias, step alignment) of stepping from the point xv to xu while
    walking toward `direction` from the center point xc: the alignment of the
    step plus THETA times the alignment of xu relative to xc. Both terms are
    cosines in [-1, 1]; a zero-length vector aligns as 0."""
    sx, sy = xu[0] - xv[0], xu[1] - xv[1]
    ns = math.hypot(sx, sy)
    align = 0.0 if ns == 0.0 else (sx * direction[0] + sy * direction[1]) / ns
    ox, oy = xu[0] - xc[0], xu[1] - xc[1]
    no = math.hypot(ox, oy)
    drift = 0.0 if no == 0.0 else (ox * direction[0] + oy * direction[1]) / no
    return align + THETA * drift, align


class _Views:
    """A graph's adjacency and coordinates as memoryviews, plus one label
    per vertex (a memoryview too, or None).

    The walk reads one neighbor at a time. Indexing a memoryview hands it
    Python ints and floats about twice as fast as numpy indexing hands out
    numpy scalars, and they are the same IEEE doubles, so the walk's
    arithmetic is unchanged. Unlike Python lists of the whole graph, the
    views share the arrays' memory and make no per-vertex Python object;
    lists raised the benchmark's peak RSS by about 10 MB at n=65k.
    """

    def __init__(self, graph, label=None):
        self.indptr = memoryview(graph.indptr)
        self.indices = memoryview(graph.indices)
        self.x = memoryview(np.ascontiguousarray(graph.coords[:, 0]))
        self.y = memoryview(np.ascontiguousarray(graph.coords[:, 1]))
        self.label = label


def _walk_arm(views, visited, c, direction, max_steps):
    """Extend a walk from the center c by repeatedly taking the admissible
    neighbor (carrying c's label, not yet visited) with the largest step
    bias, the lowest id among ties. Stops when no neighbor remains, when the
    best bias is <= 0, or when the best step itself points sideways or
    backward (bias kept positive only by the center-drift term)."""
    indptr, indices, label = views.indptr, views.indices, views.label
    xs, ys = views.x, views.y
    own = label[c]
    xc = (xs[c], ys[c])
    arm = []
    v = c
    while len(arm) < max_steps:
        best_u = -1
        best_d = -math.inf
        best_align = 0.0
        xv = (xs[v], ys[v])
        for u in indices[indptr[v] : indptr[v + 1]]:
            if label[u] != own or u in visited:
                continue
            d, align = _step_bias((xs[u], ys[u]), xv, xc, direction)
            if d > best_d or (d == best_d and u < best_u):
                best_u, best_d, best_align = u, d, align
        if best_u < 0 or best_d <= 0.0 or best_align <= 0.0:
            break
        arm.append(best_u)
        visited.add(best_u)
        v = best_u
    return arm


def _median_and_quartiles(pts):
    """np.median(pts, axis=0) and np.percentile(pts, [25, 75], axis=0) for
    at least 3 points, bitwise: the same order statistics taken from one
    partition and combined by the same arithmetic, the mean of the two
    middle values and numpy's linear interpolation, which works from the
    upper neighbor once the weight reaches 1/2."""
    m = len(pts)
    h = m // 2
    lows = ((m - 1) // 4, 3 * (m - 1) // 4)
    part = np.partition(pts, sorted({h - 1, h, *lows, *(k + 1 for k in lows)}), axis=0)
    median = part[h] if m % 2 else (part[h - 1] + part[h]) / 2

    def quartile(q, k):
        t = (m - 1) * q - k
        a, b = part[k], part[k + 1]
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

    return median, quartile(0.25, lows[0]), quartile(0.75, lows[1])


def find_separator(graph, subset, views=None):
    """Walk a separator through `subset` (array of vertex ids).

    Returns (walk, direction): the walk is a connected path of vertex ids
    through the subset's center, perpendicular to the subset's long side.
    The long side is judged by interquartile coordinate extents rather than
    the bounding box: on non-convex domains a subset can carry a thin arm
    that stretches the box along an axis most of its vertices never reach,
    and cutting across the arm's axis would walk the full length of the
    dense part. `views` is the graph as _Views whose labels give the
    subset's vertices one value that no other vertex carries; it is made
    here when not given. Raises DegenerateSeparatorError when the center has
    no admissible neighbor at all.
    """
    subset = np.asarray(subset, dtype=np.int64)
    n = len(subset)
    if n < 3:
        raise DegenerateSeparatorError(f"subset of {n} vertices is too small to split")
    pts = graph.coords[subset]
    median, lo_q, hi_q = _median_and_quartiles(pts)
    dist2 = ((pts - median) ** 2).sum(axis=1)
    c = int(subset[dist2 == dist2.min()].min())

    width = float(hi_q[0] - lo_q[0])
    height = float(hi_q[1] - lo_q[1])
    direction = (1.0, 0.0) if width < height else (0.0, 1.0)

    if views is None:
        label = np.full(graph.n, -1, dtype=np.int64)
        label[subset] = 0
        views = _Views(graph, memoryview(label))
    label = views.label
    if not any(label[u] == label[c]
               for u in views.indices[views.indptr[c] : views.indptr[c + 1]]):
        raise DegenerateSeparatorError(f"center vertex {c} is isolated in its subset")

    cap = max(1, math.ceil(4.0 * math.sqrt(n)))
    visited = {c}
    forward = _walk_arm(views, visited, c, direction, cap)
    backward = _walk_arm(views, visited, c, (-direction[0], -direction[1]),
                         cap - len(forward))
    walk = np.array(backward[::-1] + [c] + forward, dtype=np.int64)
    return walk, np.array(direction)


def _side_values(graph, vertices, walk, direction):
    """Signed side of each vertex relative to the walk, and the position of
    its nearest walk vertex: the side is the projection of the offset from
    that walk vertex onto the walk's left normal."""
    normal = np.array([-direction[1], direction[0]])
    pts = graph.coords[vertices]
    _, nearest = cKDTree(graph.coords[walk]).query(pts)
    return (pts - graph.coords[walk[nearest]]) @ normal, nearest


def _groups(keys):
    """Index arrays of the runs of equal keys, in key order; each in
    ascending index order."""
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


def split_subset(graph, cuts, edges):
    """Split every subset of one tree level along its walk.

    `cuts` lists (subset, walk, direction) per node; `edges` is (src, dst)
    with every edge of the graph once, src < dst. For each cut the vertices
    of subset \\ walk go to two sides with no edge between them: each
    connected component of the remainder goes, in order of its lowest
    vertex, to the side where its vertices lean geometrically (the sum of
    their side values); with no lean, to the side that is not larger, the
    first on equal sizes. If removing the walk
    does not disconnect the geometric sides (irregular meshes), a greedy
    edge cover of the side-crossing edges is first absorbed into the
    separator.

    The subsets of one level share no edge, so one label array (the cut each
    remaining vertex belongs to) turns the graph's edges into the edges of
    every remainder at once, and one connected_components call labels the
    components of the whole level. Returns one (side1, side2, extra) per cut,
    each side in the subset's own order and extra pairing each absorbed
    vertex with the walk position it is inserted after.
    """
    label = np.full(graph.n, -1, dtype=np.int64)
    for i, (subset, walk, _) in enumerate(cuts):
        label[subset] = i
        label[walk] = -1
    side = np.zeros(graph.n)
    near = np.zeros(graph.n, dtype=np.int64)
    for i, (subset, walk, direction) in enumerate(cuts):
        rest = subset[label[subset] == i]
        if len(rest):
            side[rest], near[rest] = _side_values(graph, rest, walk, direction)

    src, dst = edges
    owner = label[src]
    inner = (owner >= 0) & (owner == label[dst])
    src, dst = src[inner], dst[inner]
    extras = [[] for _ in cuts]
    crossing = np.flatnonzero(side[src] * side[dst] < 0)
    if len(crossing):
        cut_of = owner[inner][crossing]
        for group in _groups(cut_of):
            edge = crossing[group]
            cover = _greedy_edge_cover(src[edge], dst[edge])
            label[cover] = -1
            extras[cut_of[group[0]]] = [(int(near[v]), int(v)) for v in cover]
        kept = (label[src] >= 0) & (label[dst] >= 0)
        src, dst = src[kept], dst[kept]
    _, comp = connected_components(
        sp.coo_matrix((np.ones(len(src), dtype=np.int8), (src, dst)),
                      shape=(graph.n, graph.n)),
        directed=False,
    )

    out = []
    empty = np.empty(0, dtype=np.int64)
    for i, (subset, _, _) in enumerate(cuts):
        rest = subset[label[subset] == i]
        parts = [(rest[g], side[rest[g]]) for g in _groups(comp[rest])] if len(rest) else []
        parts.sort(key=lambda part: part[0].min())
        sides = ([], [])
        n1 = n2 = 0
        for members, values in parts:
            lean = float(values.sum())
            if lean < 0 or (lean == 0 and n1 <= n2):
                sides[0].append(members)
                n1 += len(members)
            else:
                sides[1].append(members)
                n2 += len(members)
        v1, v2 = (np.concatenate(s) if s else empty for s in sides)
        out.append((v1, v2, extras[i]))
    return out


def _greedy_edge_cover(src, dst):
    """Vertices covering all given edges: again and again the vertex on the
    most uncovered edges, the lowest id among ties. Each vertex keeps the set
    of its uncovered edges' other ends, so a pick updates only the counts it
    changes. Returns the vertices sorted."""
    uncovered = {}
    for u, w in zip(src.tolist(), dst.tolist()):
        uncovered.setdefault(u, set()).add(w)
        uncovered.setdefault(w, set()).add(u)
    chosen = []
    while uncovered:
        pick = min(uncovered, key=lambda v: (-len(uncovered[v]), v))
        chosen.append(pick)
        for w in uncovered.pop(pick):
            uncovered[w].discard(pick)
            if not uncovered[w]:
                del uncovered[w]
    return np.array(sorted(chosen), dtype=np.int64)


def _insert_extras(walk, extra):
    """Insert absorbed vertices just after their anchor walk position."""
    if not extra:
        return walk
    out = list(walk)
    for anchor, v in sorted(extra, key=lambda t: (-t[0], t[1])):
        out.insert(anchor + 1, v)
    return np.array(out, dtype=np.int64)


def split_crossed_segments(graph, segments, seg_of, walk, level, counters):
    """Split the segments crossed by a new separator walk; returns the events.

    A segment is crossed when a walk endpoint is adjacent to some of its
    vertices; those vertices (closed to a contiguous run) become a junction
    segment and the rest of the segment splits around it. Junction segments
    are never split further, and crossed segments split in order of their
    ids. `segments` lists every segment so far and seg_of[v] is the position
    in it of vertex v's current segment, -1 for none; the children are
    appended to `segments` and take over their vertices in `seg_of`.
    `counters` numbers the children per owner and level.
    """
    events = []
    endpoints = [int(walk[0])] if len(walk) == 1 else [int(walk[0]), int(walk[-1])]
    for e in endpoints:
        nbrs = graph.neighbors(e)
        at = seg_of[nbrs]
        hit = {s for s in at[at >= 0].tolist() if segments[s].kind == REGULAR}
        for s in sorted(hit, key=lambda s: segments[s].id):
            parent = segments[s]
            touched = (parent.vertices[:, None] == nbrs[at == s]).any(axis=1)
            pos = np.flatnonzero(touched)
            children = _split_one(parent, int(pos[0]), int(pos[-1]) + 1, level, counters)
            parent.children = tuple(c.id for c in children)
            events.append(SplitEvent(level=level, parent=parent.id, children=parent.children))
            for c in children:
                seg_of[c.vertices] = len(segments)
                segments.append(c)
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
    """Breadth-first construction, one tree depth at a time.

    Each level runs in three phases:
    1. per node, in queue order: the leaf test and the separator walk
       (find_separator), reading membership from one label array of the
       level;
    2. split_subset for the whole level: side values, greedy edge covers,
       one component labelling and the lean rule;
    3. per node, in queue order: the separator, its root segment, the split
       of the segments its walk crosses, and the children.
    A walk never reads the segments and the subsets of one level share no
    edge, so running phase 3 after the whole of phases 1 and 2 builds the
    same tree as finishing one node before starting the next. Breadth-first
    order makes every segment split come from a separator at a level >= the
    level that created the segment being split, so merges undo the splits
    cleanly stage by stage.
    """

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
        self.views = _Views(graph)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        upper = src < graph.indices
        self.edges = (src[upper], graph.indices[upper])
        self.segments = []
        self.seg_of = np.full(n, -1, dtype=np.int64)
        self.split_counters = {}
        self.tree = DissectionTree(graph, leaf_size)

    def build(self):
        g = self.g
        tree = self.tree
        _, labels = connected_components(
            sp.csr_matrix(
                (np.ones(len(g.indices), dtype=np.int8), g.indices, g.indptr),
                shape=(g.n, g.n),
            ),
            directed=False,
        )
        components = _groups(labels) if g.n else []
        components.sort(key=lambda members: members[0])
        level = [(TreeNode(depth=1), members) for members in components]
        tree.roots = [node for node, _ in level]
        while level:
            tree.nodes += [node for node, _ in level]
            level = self._split_level(level)
        tree.segments = {seg.id: seg for seg in self.segments}

        tree.levels = self.levels
        offset = 0
        parts = []
        for root in tree.roots:
            part = self._emit(root, offset)
            offset += len(part)
            parts.append(part)
        fwd = np.concatenate(parts) if parts else np.empty(0, np.int64)
        tree.order = Permutation(fwd)
        tree.position = tree.order.inv
        return tree

    def _split_level(self, level):
        """Split every node of one level; returns the next level's (child
        node, child subset) pairs in queue order."""
        g = self.g
        tree = self.tree
        leaf = [node.depth > self.levels or len(subset) <= self.leaf_size
                or len(subset) < 3 for node, subset in level]
        label = np.full(g.n, -1, dtype=np.int64)
        for i, (_, subset) in enumerate(level):
            if not leaf[i]:
                label[subset] = i
        self.views.label = memoryview(label)
        cuts = []
        for (node, subset), is_leaf in zip(level, leaf):
            if not is_leaf:
                try:
                    cuts.append((node, subset, *find_separator(g, subset, self.views)))
                    continue
                except DegenerateSeparatorError:
                    pass
            node.leaf_vertices = np.sort(subset)
            tree.leaves.append(node)
        self.views.label = None

        sides = split_subset(g, [cut[1:] for cut in cuts], self.edges)
        out = []
        for index, ((node, _, walk, _), (v1, v2, extra)) in enumerate(zip(cuts, sides)):
            depth = node.depth
            sep_order = _insert_extras(walk, extra)
            sep = Separator(level=depth, index=index, order=sep_order)
            tree.separators.append(sep)
            root_at = len(self.segments)
            self.segments.append(Segment(id=(depth, index, depth, 0), owner=sep.key,
                                         vertices=sep_order))
            tree.events += split_crossed_segments(
                g, self.segments, self.seg_of, walk, depth, self.split_counters
            )
            self.seg_of[sep_order] = root_at
            node.separator = sep
            for side in (v1, v2):
                if len(side):
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
    """Build the dissection tree for a sparse matrix with vertex coordinates.

    leaf_size, an int of at least 1, is the subset size below which the
    walk stops splitting.
    """
    check_int("leaf_size", leaf_size, 1)
    graph = matrix if isinstance(matrix, Graph) else Graph.from_matrix(matrix, coords)
    return _Builder(graph, leaf_size).build()
