"""P1 finite element assembly on triangle meshes, with the benchmark problem
families behind string descriptors.

Convention: the assembled system is K u = b with K[i,j] the diffusion (or
diffusion minus k^2 mass) bilinear form and b_i = -integral(f phi_i) plus any
neumann boundary term; dirichlet values are eliminated into the right side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .core import SparseMatrix
from .errors import ConfigError, DimensionError, ParseError
from .fields import CoefficientField, make_contrast_field
from .meshing import (
    DIRICHLET,
    NEUMANN,
    Mesh2D,
    apply_neumann_region,
    make_polygon_mesh,
    make_structured_mesh,
)

__all__ = [
    "ProblemInstance",
    "assemble_fem",
    "parse_descriptor",
    "build_problem",
    "read_matrix_market",
    "IRREGULAR_POLYGON",
]

# concave hexagon used by the irregular-domain family
IRREGULAR_POLYGON = np.array(
    [(-1.0, 0.0), (1.0, 0.0), (1.0, 0.55), (0.25, 0.55), (0.25, 1.0), (-1.0, 1.0)]
)


@dataclass
class ProblemInstance:
    matrix: SparseMatrix
    rhs: np.ndarray
    coords: np.ndarray
    mesh: Mesh2D = None
    free: np.ndarray = None              # mesh vertex index per unknown

    def __post_init__(self):
        n = self.matrix.shape[0]
        if self.matrix.shape[1] != n or len(self.rhs) != n or len(self.coords) != n:
            raise DimensionError("matrix, rhs and coords sizes must agree")

    @property
    def n(self):
        return self.matrix.shape[0]


# The keys each family reads, with their defaults. A value parses as the
# type of its default.
FAMILY_DEFAULTS = {
    "laplace-contrast": {"rho": 1.0, "seed": 0},
    "helmholtz": {"k": float(np.sqrt(2.0))},
    "helmholtz-poly": {"k": float(np.sqrt(2.0))},
    "laplace-aniso": {"d11": 1.0, "d12": 1.0, "d21": 0.0, "d22": 1.0},
}


def parse_descriptor(descriptor):
    """Parse 'family:key=val,key=val' into (family, params dict).

    params holds every key the family reads, parsed, with the family's
    default where the descriptor leaves a key out. An unknown family, a key
    the family does not read and a value that does not parse raise
    ConfigError.
    """
    family, _, rest = descriptor.partition(":")
    family = family.strip()
    if family not in FAMILY_DEFAULTS:
        raise ConfigError(f"unknown problem family {family!r}")
    params = dict(FAMILY_DEFAULTS[family])
    for item in rest.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"bad descriptor item {item!r} in {descriptor!r}")
        k, _, v = item.partition("=")
        k, v = k.strip(), v.strip()
        if k not in params:
            raise ConfigError(f"{family} reads no key {k!r} (in {descriptor!r}); "
                              f"it accepts {', '.join(sorted(params))}")
        kind = type(params[k])
        try:
            params[k] = kind(v)
        except ValueError:
            raise ConfigError(f"{family}: {k}={v!r} is not a valid {kind.__name__} "
                              f"(in {descriptor!r})") from None
    return family, params


def _p1_stiffness(mesh, coeff):
    """Element-assembled stiffness matrix (with coefficient) and the
    triangle areas."""
    tris = mesh.triangles
    p = mesh.vertices[tris]                      # (m, 3, 2)
    # edge vectors opposite each vertex
    e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]   # (m, 3, 2)
    area2 = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
    area = 0.5 * area2
    if np.any(area <= 0):
        raise DimensionError("mesh triangles must be CCW with positive area")
    # grad(lambda_i) = rot90(e_i) / (2 area)
    grads = np.stack([-e[..., 1], e[..., 0]], axis=-1) / area2[:, None, None]

    if coeff.is_tensor:
        d = coeff(p.mean(axis=1))
        dg = np.einsum("ab,mjb->mja", d, grads)
        k_loc = np.einsum("mia,mja,m->mij", grads, dg, area)
    else:
        a_t = coeff(p.mean(axis=1))
        k_loc = np.einsum("mia,mja,m->mij", grads, grads, area * a_t)
    return _assemble(mesh, k_loc), area


def _p1_mass(mesh, area):
    """Element-assembled mass matrix, from the triangle areas."""
    m_pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _assemble(mesh, area[:, None, None] * m_pattern)


def _assemble(mesh, local):
    """Sum the (m, 3, 3) element matrices into an n x n CSR matrix."""
    tris, n = mesh.triangles, mesh.num_vertices
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _load_vector(mesh, f, area):
    """b_i = integral(f phi_i), one-point quadrature at centroids."""
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    fv = f(cent) if callable(f) else np.full(len(cent), float(f))
    contrib = fv * area / 3.0
    # corner 0 of every triangle, then corner 1, then corner 2
    return np.bincount(mesh.triangles.T.ravel(), weights=np.tile(contrib, 3),
                       minlength=mesh.num_vertices)


def _neumann_load(mesh, h):
    """b_i += integral over neumann edges of h phi_i (exact for linear h)."""
    ends = mesh.boundary_edges[mesh.edge_marker == NEUMANN]
    p = mesh.vertices[ends]                       # (e, 2, 2)
    d = p[:, 1] - p[:, 0]
    length = np.hypot(d[:, 0], d[:, 1])
    if callable(h):
        hi, hj = h(p.reshape(-1, 2)).reshape(-1, 2).T
    else:
        hi = hj = np.full(len(ends), float(h))
    terms = np.column_stack([length * (2 * hi + hj) / 6.0, length * (hi + 2 * hj) / 6.0])
    return np.bincount(ends.ravel(), weights=terms.ravel(), minlength=mesh.num_vertices)


def assemble_fem(mesh, pde, coeff=None, f=None, dirichlet=None, neumann_h=None):
    """Assemble a ProblemInstance for a descriptor on the given mesh.

    pde is a descriptor string (see parse_descriptor). Family defaults follow
    the benchmark setups; f / dirichlet / neumann_h override the data.
    """
    family, params = parse_descriptor(pde)

    helm_k = 0.0
    if family == "laplace-contrast":
        if coeff is None:
            coeff = make_contrast_field(params["rho"], params["seed"])
        if f is None:
            f = -4.0
        if dirichlet is None:
            dirichlet = lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 - 1.0
    elif family in ("helmholtz", "helmholtz-poly"):
        helm_k = params["k"]
        if coeff is None:
            coeff = CoefficientField.constant(1.0)
        if f is None:
            f = -1.0
        if dirichlet is None:
            dirichlet = lambda p: np.exp(p[:, 0] + p[:, 1])
    elif family == "laplace-aniso":
        d = np.array([[params["d11"], params["d12"]], [params["d21"], params["d22"]]])
        if coeff is None:
            coeff = CoefficientField.tensor(d)
        if f is None:
            f = -4.0
        if dirichlet is None:
            dirichlet = lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 - 1.0
        if neumann_h is None:
            neumann_h = lambda p: 2.0 * p[:, 1]

    a_full, area = _p1_stiffness(mesh, coeff)
    if helm_k != 0.0:
        a_full = (a_full - (helm_k ** 2) * _p1_mass(mesh, area)).tocsr()
    b_full = _load_vector(mesh, f, area)
    if np.any(mesh.edge_marker == NEUMANN):
        b_full += _neumann_load(mesh, neumann_h)

    marker = mesh.vertex_marker
    free = np.flatnonzero(marker != DIRICHLET)
    fixed = np.flatnonzero(marker == DIRICHLET)
    g = np.zeros(mesh.num_vertices)
    if len(fixed):
        g[fixed] = dirichlet(mesh.vertices[fixed])

    a_rows = a_full[free]
    a_ff = a_rows[:, free].tocsr()
    b_red = b_full[free] - a_rows[:, fixed] @ g[fixed]

    return ProblemInstance(
        matrix=SparseMatrix(a_ff),
        rhs=b_red,
        coords=mesh.vertices[free],
        mesh=mesh,
        free=free,
    )


# width over height of the structured meshes' domain (see BBOX in fields)
ASPECT = 2.0


def build_problem(descriptor, target_n):
    """Build a benchmark instance with roughly target_n unknowns."""
    family, params = parse_descriptor(descriptor)
    if family == "helmholtz-poly":
        poly = IRREGULAR_POLYGON
        # crude area-based spacing; unknown count is approximate by design
        area = 0.5 * abs(
            np.sum(
                poly[:, 0] * np.roll(poly[:, 1], -1)
                - np.roll(poly[:, 0], -1) * poly[:, 1]
            )
        )
        h = float(np.sqrt(2.0 * area / (np.sqrt(3) * target_n)))
        mesh = make_polygon_mesh(poly, h)
    else:
        ny = max(3, int(round(np.sqrt(target_n / ASPECT))) + 2)
        nx = max(3, int(round(ASPECT * (ny - 2))) + 2)
        mesh = make_structured_mesh(nx, ny)
        if family == "laplace-aniso":
            ytop = mesh.vertices[:, 1].max()
            mesh = apply_neumann_region(mesh, lambda m: m[:, 1] > ytop - 1e-12)
    return assemble_fem(mesh, descriptor)


def read_matrix_market(path_matrix, path_coords, path_rhs=None):
    """ProblemInstance from a Matrix Market matrix file, an 'x y' coordinate
    file and an optional right-hand-side file.

    The matrix file is anything scipy.io.mmread reads: coordinate or array
    layout; a real, integer, complex or pattern field; general, symmetric,
    skew-symmetric or hermitian storage (stored triangles are mirrored). An
    integer or pattern field reads as float64. The coordinate file holds one
    'x y' pair per unknown. The rhs file holds one value per line, or one
    're im' pair per line for a complex rhs; without it the rhs is all ones.
    In the two text files, lines starting with '%' or '#' are comments. A
    file that cannot be read raises ParseError naming the file.
    """
    import scipy.io  # on first use: building and solving never load it

    path, comments = path_matrix, ("%", "#")
    try:
        csr = sp.csr_matrix(scipy.io.mmread(path))
        path = path_coords
        coords = np.loadtxt(path, comments=comments, ndmin=2)
        path = path_rhs
        rhs = None if path is None else np.loadtxt(path, comments=comments, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    csr = csr.astype(np.promote_types(csr.dtype, np.float64), copy=False)
    n = csr.shape[0]
    if csr.shape[0] != csr.shape[1]:
        raise DimensionError(f"matrix is {csr.shape[0]}x{csr.shape[1]}, expected square")
    if coords.size == 0:  # np.loadtxt reads an empty file as shape (0, 1)
        coords = coords.reshape(0, 2)
    if coords.shape[1] != 2:
        raise ParseError(f"{path_coords}: expected 'x y' per line, "
                         f"got {coords.shape[1]} values")
    if len(coords) != n:
        raise DimensionError(
            f"coordinate file holds {len(coords)} points for a {n}-row matrix"
        )
    if rhs is not None:
        if rhs.shape[1] == 2:
            rhs = rhs.view(np.complex128)
        elif rhs.shape[1] != 1:
            raise ParseError(f"{path_rhs}: expected one value or 're im' per "
                             f"line, got {rhs.shape[1]} values")
        rhs = rhs[:, 0]
        if len(rhs) != n:
            raise DimensionError(f"rhs length {len(rhs)} does not match n={n}")
    else:
        rhs = np.ones(n, dtype=csr.dtype)
    return ProblemInstance(
        matrix=SparseMatrix(csr),
        rhs=rhs,
        coords=coords,
    )
