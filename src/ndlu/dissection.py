"""Geometric nested dissection with hierarchical separator segments.

Builds a binary dissection tree over the adjacency graph of a sparse matrix
whose vertices carry 2D coordinates. A subset of at most LEAF_SIZE vertices
is a leaf. Each internal node stores a separator found by a directional walk
from the subset's center; separators are kept in walk order so that the
pieces created when deeper separators cross them are contiguous index
ranges. The tree records every such split as an event, the one record of
splits, which the factorization later undoes level by level when it merges
segments back together.

The tree is built one depth at a time, so that each level costs work linear
in the vertices it holds: the walks run node by node on memoryviews of the
adjacency and coordinates, then split_subset splits every subset of the
level with one label array and one connected-components call, and finally
the separators are registered node by node. The subsets of one level share
no edge, which is what lets one labelling serve them all. Only the sign of
a vertex's side of its walk matters, and outside the band of coordinates
the walk spans it follows from one comparison, so nearest-walk queries are
made only where the sign is in doubt or a value is needed (split_subset).

Once the tree is built, every leaf's vertices get a nested order of their
own, by coordinate bisection down to parts of LEAF_PART vertices, all
leaves at once (_Builder._order_leaves). In ascending id order a leaf's
elimination tree is a path, and the inverses of its factors are full; in a
nested order the tree is bushy, and most of their entries are exact zeros,
which the factorization does not store. The order inside a leaf moves no
span, separator or event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .core import as_csr, as_numbers
from .errors import (ConfigError, DegenerateSeparatorError, DimensionError,
                     NonFiniteError)

REGULAR = "regular"
JUNCTION = "junction"

# weight of the center-drift term of the walk's step bias
THETA = 0.1
# largest subset the walk leaves unsplit
LEAF_SIZE = 64
# largest part of a leaf that the leaf's own nested order leaves unsplit
LEAF_PART = 8


class Graph:
    """Symmetrized adjacency structure of a sparse matrix plus coordinates.

    Self-loops are dropped; an edge (i, j) always appears in both rows.
    coords hold one finite real (x, y) per vertex; complex ones raise ConfigError.
    """

    def __init__(self, indptr, indices, coords):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        coords = as_numbers("coords", coords)
        if coords.dtype.kind == "c":
            raise ConfigError(f"coords must be real, got dtype {coords.dtype}")
        self.coords = coords.astype(np.float64, copy=False)
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
        pattern = as_csr(a).copy()
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

    id is (owner level, owner index, creating level, ordinal), so id[:2]
    names the separator that owns it. A separator is its root segment, with
    id (level, index, level, 0) and its whole walk order as vertices. Where a
    deeper walk crosses a segment, a SplitEvent names the segment as the
    parent of the pieces and lists their ids as its children.
    """

    id: tuple
    vertices: np.ndarray
    kind: str = REGULAR

    @property
    def size(self):
        return len(self.vertices)


@dataclass
class SplitEvent:
    level: int
    parent: tuple
    children: tuple


@dataclass
class TreeNode:
    """A node of the dissection tree: an internal node has a separator and
    children, a leaf has leaf_vertices, its vertices in the leaf's own
    nested order, which is the order of its span."""

    depth: int
    span: tuple = (0, 0)
    separator: Segment | None = None
    children: list = field(default_factory=list)
    leaf_vertices: np.ndarray | None = None

    @property
    def is_leaf(self):
        return self.separator is None

    @property
    def size(self):
        return self.span[1] - self.span[0]


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
    backward (bias kept positive only by the center-drift term).

    The step bias of moving from v to u is the alignment of the step with
    `direction` plus THETA times the alignment of u's offset from c; both
    are cosines in [-1, 1], and a zero-length vector aligns as 0. It is
    computed inline, on Python floats bound to locals, because the loop
    runs once per neighbor of every walk vertex.
    """
    indptr, indices, label = views.indptr, views.indices, views.label
    xs, ys = views.x, views.y
    dx, dy = direction
    hypot, theta = math.hypot, THETA
    own = label[c]
    xc, yc = xs[c], ys[c]
    arm = []
    v = c
    while len(arm) < max_steps:
        best_u = -1
        best_d = -math.inf
        best_align = 0.0
        xv, yv = xs[v], ys[v]
        for u in indices[indptr[v] : indptr[v + 1]]:
            if label[u] != own or u in visited:
                continue
            xu, yu = xs[u], ys[u]
            sx, sy = xu - xv, yu - yv
            ns = hypot(sx, sy)
            align = 0.0 if ns == 0.0 else (sx * dx + sy * dy) / ns
            ox, oy = xu - xc, yu - yc
            no = hypot(ox, oy)
            drift = 0.0 if no == 0.0 else (ox * dx + oy * dy) / no
            d = align + theta * drift
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
    here when not given, after the subset is checked: a 1-D array of integer
    ids in [0, graph.n), or ConfigError for another dtype and DimensionError
    for another shape or an id out of range. Raises DegenerateSeparatorError
    when the center has no admissible neighbor at all.
    """
    if views is None:
        subset = as_numbers("subset", subset)
        if subset.dtype.kind not in "iu":
            raise ConfigError(f"subset must hold integer vertex ids, got "
                              f"dtype {subset.dtype}")
        if subset.ndim != 1:
            raise DimensionError(f"subset must be 1-D, got shape "
                                 f"{subset.shape}")
        if subset.size and (subset.min() < 0 or subset.max() >= graph.n):
            raise DimensionError(f"subset holds ids outside [0, {graph.n})")
    subset = np.asarray(subset, dtype=np.int64)
    n = len(subset)
    if n < 3:
        raise DegenerateSeparatorError(f"subset of {n} vertices is too small to split")
    pts = graph.coords[subset]
    median, lo_q, hi_q = _median_and_quartiles(pts)
    off = pts - median  # scaled by a power of two: finite squares, same order
    off = np.ldexp(off, -np.frexp(np.abs(off).max())[1])
    dist2 = (off ** 2).sum(axis=1)
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


def _side_values(graph, vertices, walk, normal, kdtree):
    """Signed side of each vertex relative to the walk, and the position of
    its nearest walk vertex: the side is the projection of the offset from
    that walk vertex onto the walk's normal. kdtree holds the walk's
    coordinates.

    Only signs decide a split, and for an axis direction the sign of a
    vertex outside the band of coordinates its walk spans is known without
    a query. So split_subset asks only for the vertices inside the band,
    those a cover absorbs and the members of components that hold both
    signs (it says why that is exact). Each vertex is queried on its own,
    so its values do not depend on which others are asked.
    """
    pts = graph.coords[vertices]
    _, nearest = kdtree.query(pts)
    return (pts - graph.coords[walk[nearest]]) @ normal, nearest


def _groups(keys):
    """Index arrays of the runs of equal keys, in key order; each in
    ascending index order. No keys, no runs."""
    if not len(keys):
        return []
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


def split_subset(graph, cuts, edges):
    """Split every subset of one tree level along its walk.

    `cuts` lists (subset, walk, direction) per node, the direction an axis
    as find_separator returns it; `edges` is (src, dst) with every edge of
    the graph once, src < dst. For each cut the vertices of subset \\ walk
    go to two sides with no edge between them: each connected component of
    the remainder goes, in order of its lowest vertex, to the side where
    its vertices lean geometrically (the sum of their side values,
    _side_values); with no lean, to the side that is not larger, the first
    on equal sizes. If removing the walk does not disconnect the geometric
    sides (irregular meshes), a greedy edge cover of the side-crossing
    edges is first absorbed into the separator.

    Only signs decide, so most vertices need no nearest-walk query (the
    band rule). The normal of an axis direction has one nonzero component,
    so a side value is +-(p_c - w_c) for one coordinate c, and its sign is
    the sign of s_p - s_w (s = point . normal) whatever the rounding. A
    vertex with s_p above the walk's largest s_w is on side + for every
    walk vertex, one below the smallest on side -. Queried are only the
    vertices inside that band, the cover's vertices (for the walk position
    they are inserted after) and every member of a component that holds
    both signs, whose lean is then the same float sum, over its members in
    subset order, as if every vertex were queried. An edge crosses when its
    ends have opposite signs. After the cover, + and - meet only through
    exact zeros, so a component whose members agree in sign leans by that
    sign, and one of zeros does not lean.

    The subsets of one level share no edge, so one label array (the cut each
    remaining vertex belongs to) turns the graph's edges into the edges of
    every remainder at once; one connected_components call labels the
    components of the whole level, and one pass reduces them to their size,
    signs and lowest vertex. Returns one (side1, side2, extra) per cut, each
    side its components in order of their lowest vertex, each component in
    subset order, and extra pairing each absorbed vertex with the walk
    position it is inserted after.
    """
    if not cuts:
        return []
    n = graph.n
    label = np.full(n, -1, dtype=np.int64)
    normals = []
    for i, (subset, walk, direction) in enumerate(cuts):
        label[subset] = i
        label[walk] = -1
        normal = np.array([-direction[1], direction[0]], dtype=np.float64)
        if np.count_nonzero(normal) != 1:
            raise ConfigError(f"split direction {direction} is not an axis")
        normals.append(normal)
    side = np.zeros(n)
    near = np.zeros(n, dtype=np.int64)
    sign = np.zeros(n, dtype=np.int8)
    queried = np.zeros(n, dtype=bool)
    kdtrees = {}

    def query(i, vertices):
        """Side values, nearest walk positions and signs of the vertices
        of cut i not queried yet."""
        vertices = vertices[~queried[vertices]]
        if vertices.size:
            _, walk, _ = cuts[i]
            if i not in kdtrees:
                kdtrees[i] = cKDTree(graph.coords[walk])
            side[vertices], near[vertices] = _side_values(
                graph, vertices, walk, normals[i], kdtrees[i])
            sign[vertices] = np.sign(side[vertices])
            queried[vertices] = True

    # the band: each remaining vertex's coordinate c against the range of
    # its walk's; above it the sign is the normal's, below it the opposite
    axis = np.array([np.flatnonzero(normal)[0] for normal in normals])
    up = np.array([np.sign(normal[c]) for normal, c in zip(normals, axis)],
                  dtype=np.int8)
    walks = [walk for _, walk, _ in cuts]
    lengths = np.array([len(walk) for walk in walks])
    at_walk = graph.coords[np.concatenate(walks), np.repeat(axis, lengths)]
    starts = np.cumsum(lengths) - lengths
    low = np.minimum.reduceat(at_walk, starts)
    high = np.maximum.reduceat(at_walk, starts)
    rest = np.flatnonzero(label >= 0)
    cut = label[rest]
    coord = graph.coords[rest, axis[cut]]
    sign[rest] = np.where(coord > high[cut], up[cut],
                          np.where(coord < low[cut], -up[cut], 0))
    band = rest[sign[rest] == 0]
    for group in _groups(label[band]):
        query(int(label[band[group[0]]]), band[group])

    src, dst = edges
    owner = label[src]
    inner = (owner >= 0) & (owner == label[dst])
    src, dst = src[inner], dst[inner]
    extras = [[] for _ in cuts]
    crossing = np.flatnonzero(sign[src] * sign[dst] < 0)
    if len(crossing):
        cut_of = owner[inner][crossing]
        for group in _groups(cut_of):
            edge = crossing[group]
            cover = _greedy_edge_cover(src[edge], dst[edge])
            i = int(cut_of[group[0]])
            query(i, cover)
            label[cover] = -1
            extras[i] = [(int(near[v]), int(v)) for v in cover]
        kept = (label[src] >= 0) & (label[dst] >= 0)
        src, dst = src[kept], dst[kept]
    _, comp = connected_components(
        sp.coo_matrix((np.ones(len(src), dtype=np.int8), (src, dst)),
                      shape=(n, n)),
        directed=False,
    )

    # per component: size, lowest vertex and which signs its members hold
    rest = rest[label[rest] >= 0]
    member = comp[rest]
    size = np.bincount(member, minlength=n)
    lowest = np.full(n, n, dtype=np.int64)
    np.minimum.at(lowest, member, rest)
    plus = np.bincount(member[sign[rest] > 0], minlength=n) > 0
    minus = np.bincount(member[sign[rest] < 0], minlength=n) > 0
    lean = plus.astype(np.int8) - minus
    for c in np.flatnonzero(plus & minus):
        subset = cuts[label[lowest[c]]][0]
        members = subset[comp[subset] == c]
        query(int(label[lowest[c]]), members)
        lean[c] = np.sign(side[members].sum())

    comps = np.flatnonzero(size)
    comps = comps[np.argsort(lowest[comps])]
    comp_cut = label[lowest[comps]]
    sizes = ([0] * len(cuts), [0] * len(cuts))
    second = []
    for i, s, m in zip(comp_cut.tolist(), lean[comps].tolist(),
                       size[comps].tolist()):
        to_second = not (s < 0 or (s == 0 and sizes[0][i] <= sizes[1][i]))
        sizes[to_second][i] += m
        second.append(to_second)

    # every remaining vertex, cut after cut and each cut's in subset order,
    # sorted by (cut, side, lowest vertex of its component)
    rank = np.empty(n, dtype=np.int64)
    rank[comps[np.lexsort((second, comp_cut))]] = np.arange(comps.size)
    ordered = np.concatenate([subset for subset, _, _ in cuts])
    ordered = ordered[label[ordered] >= 0]
    ordered = ordered[np.argsort(rank[comp[ordered]], kind="stable")]
    out = []
    at = 0
    for i in range(len(cuts)):
        ends = at + sizes[0][i], at + sizes[0][i] + sizes[1][i]
        out.append((ordered[at:ends[0]], ordered[ends[0]:ends[1]], extras[i]))
        at = ends[1]
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
            events.append(SplitEvent(level=level, parent=parent.id,
                                     children=tuple(c.id for c in children)))
            for c in children:
                seg_of[c.vertices] = len(segments)
                segments.append(c)
    return events


def _split_one(parent, lo, hi, level, counters):
    """Children of `parent` split at local positions [lo, hi): left regular,
    junction, right regular, empties dropped."""
    l, i = parent.id[:2]
    children = []
    for a, b, kind in ((0, lo, REGULAR), (lo, hi, JUNCTION), (hi, parent.size, REGULAR)):
        if b <= a:
            continue
        k = counters.get((l, i, level), 0)
        counters[(l, i, level)] = k + 1
        children.append(Segment(id=(l, i, level, k), vertices=parent.vertices[a:b], kind=kind))
    return children


class DissectionTree:
    """Output of build_dissection: nested order, separators, segments, events.

    order lists the vertex ids in nested order as an int64 array and position
    is its inverse. separators lists each separator as its root segment, in
    creation order. events are the one record of splits: the segments no
    event names as a parent are the units the deepest elimination stage
    starts from.
    """

    def __init__(self, graph):
        self.graph = graph
        self.levels = 0
        self.roots = []
        self.nodes = []
        self.leaves = []
        self.separators = []
        self.segments = {}
        self.events = []
        self.order = None
        self.position = None

    def validate_separation(self):
        """Check that no edge joins the two sides of any internal node."""
        g = self.graph
        for node in self.nodes:
            if node.is_leaf or len(node.children) < 2:
                continue
            a, b = node.children[0].span, node.children[1].span
            side = np.zeros(g.n, dtype=np.int8)
            side[self.order[a[0] : a[1]]] = 1
            side[self.order[b[0] : b[1]]] = 2
            for v in self.order[a[0] : a[1]]:
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
    2. split_subset for the whole level: signs by the band rule, side
       values where the band leaves them in doubt, greedy edge covers, one
       component labelling and the lean rule;
    3. per node, in queue order: the separator as its root segment, the
       split of the segments its walk crosses, and the children.
    A walk never reads the segments and the subsets of one level share no
    edge, so running phase 3 after the whole of phases 1 and 2 builds the
    same tree as finishing one node before starting the next. Breadth-first
    order makes every segment split come from a separator at a level >= the
    level that created the segment being split, so merges undo the splits
    cleanly stage by stage. Once every level is split, _order_leaves puts
    each leaf in its own nested order.
    """

    def __init__(self, graph):
        self.g = graph
        n = graph.n
        # Nearest-level depth keeps average leaf sizes centered on LEAF_SIZE
        # and, unlike truncation, does not flip the tree depth between two
        # meshes whose sizes straddle a power-of-two multiple of LEAF_SIZE —
        # mesh generators target exactly those sizes, and equal-size runs
        # should get structurally comparable trees.
        self.levels = max(1, int(math.floor(math.log2(max(2.0, n / LEAF_SIZE)) + 0.5)))
        self.views = _Views(graph)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        upper = src < graph.indices
        self.edges = (src[upper], graph.indices[upper])
        self.segments = []
        self.seg_of = np.full(n, -1, dtype=np.int64)
        self.split_counters = {}
        self.tree = DissectionTree(graph)

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
        components = _groups(labels)
        components.sort(key=lambda members: members[0])
        level = [(TreeNode(depth=1), members) for members in components]
        tree.roots = [node for node, _ in level]
        while level:
            tree.nodes += [node for node, _ in level]
            level = self._split_level(level)
        tree.segments = {seg.id: seg for seg in self.segments}
        self._order_leaves()

        tree.levels = self.levels
        offset = 0
        parts = []
        for root in tree.roots:
            part = self._emit(root, offset)
            offset += len(part)
            parts.append(part)
        order = np.concatenate(parts) if parts else np.empty(0, np.int64)
        if len(order) != g.n or np.any(np.bincount(order, minlength=g.n) != 1):
            raise DimensionError("nested order misses or repeats a vertex")
        tree.order = order
        tree.position = np.empty_like(order)
        tree.position[order] = np.arange(g.n, dtype=np.int64)
        return tree

    def _split_level(self, level):
        """Split every node of one level; returns the next level's (child
        node, child subset) pairs in queue order."""
        g = self.g
        tree = self.tree
        leaf = [node.depth > self.levels or len(subset) <= LEAF_SIZE
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
            node.leaf_vertices = subset
            tree.leaves.append(node)
        self.views.label = None

        sides = split_subset(g, [cut[1:] for cut in cuts], self.edges)
        out = []
        for index, ((node, _, walk, _), (v1, v2, extra)) in enumerate(zip(cuts, sides)):
            depth = node.depth
            sep = Segment(id=(depth, index, depth, 0), vertices=_insert_extras(walk, extra))
            tree.separators.append(sep)
            root_at = len(self.segments)
            self.segments.append(sep)
            tree.events += split_crossed_segments(
                g, self.segments, self.seg_of, walk, depth, self.split_counters
            )
            self.seg_of[sep.vertices] = root_at
            node.separator = sep
            for side in (v1, v2):
                if len(side):
                    child = TreeNode(depth=depth + 1)
                    node.children.append(child)
                    out.append((child, side))
        return out

    def _order_leaves(self):
        """Give every leaf's vertices a nested order of its own, all leaves
        in one pass of rounds.

        Each round splits every part of more than LEAF_PART vertices (a
        leaf, at first) along the axis of its larger coordinate extent, x
        on ties. Its vertices ranked by (coordinate, id), the lower half
        (rounded down) is the low half, and every low-half vertex with an
        edge into the high half moves to the part's separator. The part's
        positions then go to the rest of the low half, the high half and
        the separator, in that order; the two halves are the next round's
        parts. A separator, and a part of at most LEAF_PART vertices, keeps
        its positions in ascending id order.

        Ranks on each axis are taken once, so a round sorts one integer key
        per vertex it still splits, and it finds the separators from the
        builder's edge list, cut down each round to the edges inside a part
        that is split again.
        """
        leaves = self.tree.leaves
        if not leaves:
            return
        g = self.g
        sizes = np.array([len(leaf.leaf_vertices) for leaf in leaves])
        leaf_of = np.full(g.n, -1, dtype=np.int64)
        leaf_of[np.concatenate([leaf.leaf_vertices for leaf in leaves])] = \
            np.repeat(np.arange(len(leaves)), sizes)
        # the leaf vertices in ascending id order are 0..m-1 here
        verts = np.flatnonzero(leaf_of >= 0)
        m = verts.size
        local = np.full(g.n, -1, dtype=np.int64)
        local[verts] = np.arange(m)
        xy = np.take(g.coords, verts, axis=0).T.copy()
        # each vertex's rank by (coordinate, id) on each axis
        ranks = np.empty((2, m), dtype=np.int64)
        for c, rank in zip(xy, ranks):
            rank[np.argsort(c, kind="stable")] = np.arange(m)

        # per vertex: the first position of its part, and the part while it
        # is split further (numbered densely among those parts), else -1
        start = np.cumsum(sizes) - sizes
        first = start[leaf_of[verts]]
        split = sizes > LEAF_PART
        part = np.where(split, np.cumsum(split) - 1, -1)[leaf_of[verts]]
        live = np.flatnonzero(part >= 0)
        start, size = start[split], sizes[split]
        # the edges inside a part, as pairs of local ids
        src, dst = self.edges
        part_of = np.full(g.n, -1, dtype=np.int64)
        part_of[verts] = part
        at_src = part_of[src]
        inner = (at_src >= 0) & (at_src == part_of[dst])
        src, dst = local[src.compress(inner)], local[dst.compress(inner)]
        # 0: low half, 1: high half, 2: separator
        side = np.zeros(m, dtype=np.int64)
        while live.size:
            p = part[live]
            num = size.size
            extent = []
            for c in np.take(xy, live, axis=1):
                lo, hi = np.full(num, np.inf), np.full(num, -np.inf)
                np.minimum.at(lo, p, c)
                np.maximum.at(hi, p, c)
                extent.append(hi - lo)
            along_y = (extent[1] > extent[0])[p]
            # each part's vertices in rank order on its axis, one run per part
            ranked = live[np.argsort(
                p * m + np.where(along_y, ranks[1][live], ranks[0][live]))]
            run = part[ranked]
            at = np.arange(live.size) - (np.cumsum(size) - size)[run]
            side[ranked] = at >= size[run] // 2
            # the low end of every edge between the two halves
            low = side[src] == 0
            side[np.where(low, src, dst)[low != (side[dst] == 0)]] = 2
            # the separators and the halves of at most LEAF_PART vertices
            # are done; the other halves are the next round's parts
            group = 3 * p + side[live]
            counts = np.bincount(group, minlength=3 * num)
            firsts = (np.cumsum(counts.reshape(num, 3), axis=1)
                      - counts.reshape(num, 3) + start[:, None]).ravel()
            split = counts > LEAF_PART
            split[2::3] = False
            go_on = split[group]
            done = live.compress(~go_on)
            first[done] = firsts[group.compress(~go_on)]
            part[done] = -1
            live, group = live.compress(go_on), group.compress(go_on)
            part[live] = (np.cumsum(split) - 1)[group]
            start, size = firsts[split], counts[split]
            at_src = part[src]
            inner = (at_src >= 0) & (at_src == part[dst])
            src, dst = src.compress(inner), dst.compress(inner)
        order = verts[np.argsort(first * m + np.arange(m))]
        ends = np.cumsum(sizes).tolist()
        for leaf, s, e in zip(leaves, [0] + ends[:-1], ends):
            leaf.leaf_vertices = order[s:e]

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
        parts.append(node.separator.vertices)
        node.span = (base, cursor + node.separator.size)
        return np.concatenate(parts)


def build_dissection(matrix, coords):
    """Build the dissection tree for a sparse matrix with vertex coordinates.

    matrix passes core.as_csr and coords holds one (x, y) per row (Graph).
    """
    return _Builder(Graph.from_matrix(matrix, coords)).build()
