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
    descriptor: str
    mesh: Mesh2D = None
    free: np.ndarray = None              # mesh vertex index per unknown

    def __post_init__(self):
        n = self.matrix.shape[0]
        if self.matrix.shape[1] != n or len(self.rhs) != n or len(self.coords) != n:
            raise DimensionError("matrix, rhs and coords sizes must agree")

    @property
    def n(self):
        return self.matrix.shape[0]


def parse_descriptor(descriptor):
    """Parse 'family:key=val,key=val' into (family, params dict)."""
    if ":" in descriptor:
        family, _, rest = descriptor.partition(":")
        params = {}
        for item in rest.split(","):
            if not item:
                continue
            if "=" not in item:
                raise ConfigError(f"bad descriptor item {item!r} in {descriptor!r}")
            k, _, v = item.partition("=")
            params[k.strip()] = v.strip()
    else:
        family, params = descriptor, {}
    family = family.strip()
    known = {"laplace-contrast", "helmholtz", "helmholtz-poly", "laplace-aniso"}
    if family not in known:
        raise ConfigError(f"unknown problem family {family!r}")
    return family, params


def _p1_matrices(mesh, coeff):
    """Element-assembled stiffness (with coefficient) and mass matrices."""
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

    m_pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    m_loc = area[:, None, None] * m_pattern

    n = mesh.num_vertices
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    stiff = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mass = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return stiff, mass, area


def _load_vector(mesh, f, area):
    """b_i = integral(f phi_i), one-point quadrature at centroids."""
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    fv = f(cent) if callable(f) else np.full(len(cent), float(f))
    contrib = fv * area / 3.0
    b = np.zeros(mesh.num_vertices)
    for k in range(3):
        np.add.at(b, mesh.triangles[:, k], contrib)
    return b


def _neumann_load(mesh, h):
    """b_i += integral over neumann edges of h phi_i (exact for linear h)."""
    b = np.zeros(mesh.num_vertices)
    sel = mesh.edge_marker == NEUMANN
    for i, j in mesh.boundary_edges[sel]:
        pi, pj = mesh.vertices[i], mesh.vertices[j]
        length = float(np.hypot(*(pj - pi)))
        hi = float(h(pi.reshape(1, 2))[0]) if callable(h) else float(h)
        hj = float(h(pj.reshape(1, 2))[0]) if callable(h) else float(h)
        b[i] += length * (2 * hi + hj) / 6.0
        b[j] += length * (hi + 2 * hj) / 6.0
    return b


def assemble_fem(mesh, pde, coeff=None, f=None, dirichlet=None, neumann_h=None):
    """Assemble a ProblemInstance for a descriptor on the given mesh.

    pde is a descriptor string (see parse_descriptor). Family defaults follow
    the benchmark setups; f / dirichlet / neumann_h override the data.
    """
    family, params = parse_descriptor(pde)

    helm_k = 0.0
    if family == "laplace-contrast":
        rho = float(params.get("rho", 1))
        seed = int(params.get("seed", 0))
        if coeff is None:
            coeff = make_contrast_field(rho, seed)
        if f is None:
            f = -4.0
        if dirichlet is None:
            dirichlet = lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 - 1.0
    elif family in ("helmholtz", "helmholtz-poly"):
        helm_k = float(params.get("k", np.sqrt(2.0)))
        if coeff is None:
            coeff = CoefficientField.constant(1.0)
        if f is None:
            f = -1.0
        if dirichlet is None:
            dirichlet = lambda p: np.exp(p[:, 0] + p[:, 1])
    elif family == "laplace-aniso":
        d = np.array(
            [
                [float(params.get("d11", 1.0)), float(params.get("d12", 1.0))],
                [float(params.get("d21", 0.0)), float(params.get("d22", 1.0))],
            ]
        )
        if coeff is None:
            coeff = CoefficientField.tensor(d)
        if f is None:
            f = -4.0
        if dirichlet is None:
            dirichlet = lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 - 1.0
        if neumann_h is None:
            neumann_h = lambda p: 2.0 * p[:, 1]

    stiff, mass, area = _p1_matrices(mesh, coeff)
    a_full = stiff if helm_k == 0.0 else (stiff - (helm_k ** 2) * mass).tocsr()
    b_full = _load_vector(mesh, f, area)
    if np.any(mesh.edge_marker == NEUMANN):
        b_full += _neumann_load(mesh, neumann_h)

    marker = mesh.vertex_marker
    free = np.flatnonzero(marker != DIRICHLET)
    fixed = np.flatnonzero(marker == DIRICHLET)
    g = np.zeros(mesh.num_vertices)
    if len(fixed):
        g[fixed] = dirichlet(mesh.vertices[fixed])

    a_ff = a_full[free][:, free].tocsr()
    b_red = b_full[free] - a_full[free][:, fixed] @ g[fixed]

    return ProblemInstance(
        matrix=SparseMatrix(a_ff),
        rhs=b_red,
        coords=mesh.vertices[free],
        descriptor=pde,
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
        descriptor=f"file:{path_matrix}",
    )
