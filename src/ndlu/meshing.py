"""Triangle meshes: structured rectangle grids and Delaunay polygon meshes.

Vertex markers: 0 = interior, 1 = dirichlet boundary, 2 = neumann boundary.
Boundary edges carry their own marker; a vertex touching any dirichlet edge
is dirichlet (the dirichlet part of the boundary is closed).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from .core import check_int
from .errors import ConfigError, GeometryError

INTERIOR, DIRICHLET, NEUMANN = 0, 1, 2

# (x0, x1, y0, y1) of the rectangle every structured mesh covers
DOMAIN = (-1.0, 1.0, 0.0, 1.0)

__all__ = [
    "Mesh2D",
    "make_structured_mesh",
    "make_polygon_mesh",
    "apply_neumann_region",
    "INTERIOR",
    "DIRICHLET",
    "NEUMANN",
]


@dataclass
class Mesh2D:
    vertices: np.ndarray          # (n, 2) float64
    triangles: np.ndarray         # (m, 3) int64, CCW
    boundary_edges: np.ndarray    # (e, 2) int64
    edge_marker: np.ndarray       # (e,) uint8, DIRICHLET or NEUMANN
    vertex_marker: np.ndarray = field(default=None)  # (n,) uint8, derived

    def __post_init__(self):
        if self.vertex_marker is None:
            self.vertex_marker = derive_vertex_markers(
                len(self.vertices), self.boundary_edges, self.edge_marker
            )

    @property
    def num_vertices(self):
        return len(self.vertices)


def derive_vertex_markers(n, boundary_edges, edge_marker):
    marker = np.zeros(n, dtype=np.uint8)
    neu = boundary_edges[edge_marker == NEUMANN]
    marker[neu.ravel()] = NEUMANN
    # dirichlet closure wins at shared vertices
    dir_ = boundary_edges[edge_marker == DIRICHLET]
    marker[dir_.ravel()] = DIRICHLET
    return marker


def _orient_ccw(vertices, triangles):
    p = vertices[triangles]
    cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])
    flip = cross < 0
    triangles = triangles.copy()
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return triangles


def _boundary_edges_of(triangles):
    """Edges used by exactly one triangle, as sorted vertex pairs in
    lexicographic order, with the dtype of triangles.

    Edge (lo, hi) of an n-vertex mesh is counted as the int64 key
    lo * n + hi, which orders as the pairs do and holds any n below 3e9.
    """
    if not len(triangles):
        return np.empty((0, 2), dtype=np.int64)
    t = triangles.astype(np.int64, copy=False)
    nxt = t[:, [1, 2, 0]]
    n = int(t.max()) + 1
    key, count = np.unique(np.minimum(t, nxt) * n + np.maximum(t, nxt), return_counts=True)
    lo, hi = np.divmod(key[count == 1], n)
    return np.column_stack([lo, hi]).astype(triangles.dtype, copy=False)


def make_structured_mesh(nx, ny):
    """Tensor grid on DOMAIN = [x0,x1]x[y0,y1]: nx*ny vertices, two CCW
    triangles per cell; all boundary edges marked dirichlet. nx and ny are
    ints of at least 2."""
    check_int("nx", nx, 2)
    check_int("ny", ny, 2)
    x0, x1, y0, y1 = DOMAIN
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    X, Y = np.meshgrid(xs, ys)            # row j is y = ys[j]
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    j, i = np.meshgrid(np.arange(ny - 1), np.arange(nx - 1), indexing="ij")
    v00 = (j * nx + i).ravel()
    v10 = v00 + 1
    v01 = v00 + nx
    v11 = v01 + 1
    tris = np.empty((2 * v00.size, 3), dtype=np.int64)
    tris[0::2] = np.column_stack([v00, v10, v11])
    tris[1::2] = np.column_stack([v00, v11, v01])

    be = _boundary_edges_of(tris)
    marker = np.full(len(be), DIRICHLET, dtype=np.uint8)
    return Mesh2D(vertices, tris, be, marker)


def apply_neumann_region(mesh, predicate):
    """Re-mark boundary edges whose midpoint satisfies predicate as neumann."""
    mid = 0.5 * (mesh.vertices[mesh.boundary_edges[:, 0]] + mesh.vertices[mesh.boundary_edges[:, 1]])
    neu = predicate(mid)
    marker = np.where(neu, NEUMANN, DIRICHLET).astype(np.uint8)
    return Mesh2D(mesh.vertices, mesh.triangles, mesh.boundary_edges, marker)


def _segments_intersect(p1, p2, p3, p4):
    """Proper or touching intersection of segments p1p2 and p3p4."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(v) < 1e-14:
            return 0
        return 1 if v > 0 else -1

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) - 1e-14 <= c[0] <= max(a[0], b[0]) + 1e-14
            and min(a[1], b[1]) - 1e-14 <= c[1] <= max(a[1], b[1]) + 1e-14
        )

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 and d2 and d3 and d4:
        return True
    for d, a, b, c in ((d1, p3, p4, p1), (d2, p3, p4, p2), (d3, p1, p2, p3), (d4, p1, p2, p4)):
        if d == 0 and on_seg(a, b, c):
            return True
    return False


def _validate_polygon(poly):
    n = len(poly)
    if n < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    for i in range(n):
        for j in range(i + 1, n):
            if np.allclose(poly[i], poly[j], atol=1e-14):
                raise GeometryError(f"repeated polygon vertex at positions {i} and {j}")
    # non-adjacent edge pairs must not intersect
    for i in range(n):
        a1, a2 = poly[i], poly[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = poly[j], poly[(j + 1) % n]
            if _segments_intersect(a1, a2, b1, b2):
                raise GeometryError(f"polygon edges {i} and {j} intersect")


def points_in_polygon(points, poly):
    """Even-odd crossing test, vectorized over points."""
    points = np.asarray(points, dtype=np.float64)
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcut = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, xcut, np.inf))
    return inside


def make_polygon_mesh(polygon, target_h):
    """Delaunay mesh of a simple polygon with spacing roughly target_h.

    Boundary is sampled at target_h; interior points sit on a staggered
    lattice kept clear of the boundary; triangles with centroids outside the
    polygon are dropped. All boundary edges are marked dirichlet. target_h
    is a finite real number above 0. polygon is an (m, 2) array of finite
    real numbers, or GeometryError is raised; so is it for a polygon whose
    samples span no area, such as one with collinear vertices.
    """
    try:
        poly = np.asarray(polygon)
    except ValueError as exc:  # a ragged nested sequence
        raise GeometryError(f"polygon must be an (m, 2) array: {exc}") from exc
    if poly.dtype.kind not in "biuf" or poly.shape[1:] != (2,) or not np.isfinite(poly).all():
        raise GeometryError("polygon must be an (m, 2) array of finite real "
                            f"numbers, got shape {poly.shape}, dtype {poly.dtype}")
    poly = poly.astype(np.float64)
    if not (isinstance(target_h, numbers.Real) and 0 < target_h < np.inf):
        raise ConfigError(f"target_h must be positive and finite: {target_h!r}")
    _validate_polygon(poly)

    # boundary samples, in order around the polygon
    bpts = []
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        seg = np.hypot(*(b - a))
        k = max(1, int(round(seg / target_h)))
        for t in np.arange(k) / k:
            bpts.append(a + t * (b - a))
    bpts = np.array(bpts)

    # staggered interior lattice
    x0, y0 = poly.min(axis=0)
    x1, y1 = poly.max(axis=0)
    dy = target_h * np.sqrt(3) / 2
    rows = []
    yv = y0 + dy
    row_idx = 0
    while yv < y1 - 0.25 * dy:
        off = 0.5 * target_h if row_idx % 2 else 0.0
        xv = np.arange(x0 + 0.5 * target_h + off, x1 - 0.25 * target_h, target_h)
        rows.append(np.column_stack([xv, np.full(xv.size, yv)]))
        yv += dy
        row_idx += 1
    ipts = np.vstack(rows) if rows else np.empty((0, 2))
    if len(ipts):
        ipts = ipts[points_in_polygon(ipts, poly)]
        if len(ipts):
            # keep lattice points clear of boundary samples
            d, _ = cKDTree(bpts).query(ipts)
            ipts = ipts[d > 0.55 * target_h]

    pts = np.vstack([bpts, ipts]) if len(ipts) else bpts
    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise GeometryError("polygon has no area to mesh") from exc
    cent = pts[tri.simplices].mean(axis=1)
    keep = tri.simplices[points_in_polygon(cent, poly)]
    if not len(keep):
        raise GeometryError("no triangles survive the polygon filter")

    # drop vertices unused by kept triangles and compress indices
    used = np.unique(keep)
    remap = np.full(len(pts), -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    vertices = pts[used]
    triangles = _orient_ccw(vertices, remap[keep])

    be = _boundary_edges_of(triangles)
    marker = np.full(len(be), DIRICHLET, dtype=np.uint8)
    return Mesh2D(vertices, triangles, be, marker)
