from collections import Counter

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay

from ndlu.assembly import (
    ProblemInstance,
    _load_vector,
    _neumann_load,
    _p1_mass,
    _p1_stiffness,
    assemble_fem,
    build_problem,
    make_contrast_field,
    parse_descriptor,
    read_matrix_market,
)
from ndlu.errors import (ConfigError, DimensionError, GeometryError,
                         NonFiniteError)
from ndlu.factor import is_symmetric
from ndlu.meshing import (
    DIRICHLET,
    NEUMANN,
    Mesh2D,
    _boundary_edges_of,
    apply_neumann_region,
    make_polygon_mesh,
    make_structured_mesh,
)

L_SHAPED = np.array(
    [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]
)


def edges(mesh):
    """All unique undirected edges of the triangulation."""
    t = mesh.triangles
    e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    e.sort(axis=1)
    return np.unique(e, axis=0)


def signed_areas(mesh):
    """Area of each triangle, negative where it runs clockwise."""
    p = mesh.vertices[mesh.triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


class TestStructuredMesh:
    def test_2x2(self):
        m = make_structured_mesh(2, 2)
        assert m.num_vertices == 4
        assert len(m.triangles) == 2
        assert np.all(m.vertex_marker == DIRICHLET)

    def test_3x2(self):
        m = make_structured_mesh(3, 2)
        assert m.num_vertices == 6
        assert len(m.triangles) == 4

    def test_euler_characteristic(self):
        m = make_structured_mesh(100, 100)
        v = m.num_vertices
        e = len(edges(m))
        f = len(m.triangles) + 1  # outer face
        assert v - e + f == 2

    def test_ccw_positive_areas(self):
        m = make_structured_mesh(7, 5)
        assert np.all(signed_areas(m) > 0)

    def test_areas_tile_domain(self):
        m = make_structured_mesh(9, 6)
        assert np.isclose(signed_areas(m).sum(), 2.0)


def boundary_edges_by_count(triangles):
    """Reference for _boundary_edges_of: count every sorted vertex pair and
    keep those used once, in lexicographic order."""
    count = Counter(
        tuple(sorted((int(t[a]), int(t[b]))))
        for t in triangles
        for a, b in ((0, 1), (1, 2), (2, 0))
    )
    once = sorted(pair for pair, c in count.items() if c == 1)
    return np.array(once, dtype=np.int64).reshape(-1, 2)


class TestBoundaryEdges:
    @pytest.mark.parametrize(
        "triangles",
        [
            make_structured_mesh(3, 3).triangles,
            make_structured_mesh(40, 17).triangles,
            Delaunay(np.random.default_rng(3).uniform(size=(300, 2))).simplices,
            np.array([[4, 0, 9]]),
            np.array([[0, 1, 2], [2, 1, 3]]),
            # keys lo * n + hi above 2^31: an int32 product would wrap
            np.array([[70000, 0, 140000], [140000, 0, 200000]], dtype=np.int32),
        ],
        ids=["grid3x3", "grid40x17", "delaunay", "one", "two-sharing", "ids-over-2^16"],
    )
    def test_matches_the_count_of_sorted_pairs(self, triangles):
        got = _boundary_edges_of(triangles)
        want = boundary_edges_by_count(triangles)
        assert got.dtype == triangles.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_no_triangles_give_no_edges(self):
        tris = np.empty((0, 3), dtype=np.int64)
        got = _boundary_edges_of(tris)
        assert got.dtype == np.int64
        assert got.shape == (0, 2)
        # with no boundary edge, no vertex is marked
        mesh = Mesh2D(np.zeros((3, 2)), tris, got, np.empty(0, np.uint8))
        assert mesh.vertex_marker.tolist() == [0, 0, 0]


class TestPolygonMesh:
    def test_unit_square_triangle_count(self):
        poly = [(0, 0), (1, 0), (1, 1), (0, 1)]
        h = 0.12
        m = make_polygon_mesh(poly, h)
        expect = 2.0 / h**2
        assert expect / 2 <= len(m.triangles) <= expect * 2

    def test_l_shape_centroids_inside(self):
        from ndlu.meshing import points_in_polygon

        m = make_polygon_mesh(L_SHAPED, 0.11)
        cent = m.vertices[m.triangles].mean(axis=1)
        assert points_in_polygon(cent, L_SHAPED).all()
        assert np.all(signed_areas(m) > 0)

    def test_repeated_vertex_raises(self):
        with pytest.raises(GeometryError):
            make_polygon_mesh([(0, 0), (1, 0), (1, 0), (0, 1)], 0.2)

    def test_self_intersection_raises(self):
        bowtie = [(0, 0), (1, 1), (1, 0), (0, 1)]
        with pytest.raises(GeometryError):
            make_polygon_mesh(bowtie, 0.2)

    def test_connected(self):
        m = make_polygon_mesh(L_SHAPED, 0.15)
        e = edges(m)
        g = sp.coo_matrix(
            (np.ones(len(e)), (e[:, 0], e[:, 1])),
            shape=(m.num_vertices, m.num_vertices),
        )
        ncomp, _ = connected_components(g, directed=False)
        assert ncomp == 1


class TestContrastField:
    def test_rho_one_constant(self):
        f = make_contrast_field(1.0, seed=5)
        pts = np.random.default_rng(0).uniform(-1, 1, (50, 2))
        assert np.all(f(pts) == 1.0)

    def test_rho_100_two_values(self):
        f = make_contrast_field(100.0, seed=3)
        xs, ys = np.meshgrid(np.linspace(-1, 1, 64), np.linspace(0, 1, 64))
        vals = f(np.column_stack([xs.ravel(), ys.ravel()]))
        assert set(np.unique(vals)) == {0.01, 100.0}

    def test_deterministic_per_seed(self):
        pts = np.random.default_rng(1).uniform(-1, 1, (200, 2))
        a = make_contrast_field(10.0, seed=7)(pts)
        b = make_contrast_field(10.0, seed=7)(pts)
        c = make_contrast_field(10.0, seed=8)(pts)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rho_below_one_rejected(self):
        with pytest.raises(ConfigError):
            make_contrast_field(0.5, seed=0)


def hand_p1_matrices():
    """Unit square split along the main diagonal, worked out by hand."""
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    tris = np.array([[0, 1, 3], [0, 3, 2]])
    # triangle (0,1,3): grads lambda = (-1,0), (1,-1), (0,1), area 1/2
    k1 = 0.5 * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
    # triangle (0,3,2): grads lambda = (0,-1), (1,0), (-1,1)
    k2 = 0.5 * np.array([[1, 0, -1], [0, 1, -1], [-1, -1, 2]], dtype=float)
    m_loc = (1 / 24) * (np.ones((3, 3)) + np.eye(3))
    K = np.zeros((4, 4))
    M = np.zeros((4, 4))
    for tri, k_loc in ((tris[0], k1), (tris[1], k2)):
        for a in range(3):
            for b in range(3):
                K[tri[a], tri[b]] += k_loc[a, b]
                M[tri[a], tri[b]] += m_loc[a, b]
    return verts, tris, K, M


class TestAssembly:
    def test_two_triangle_helmholtz_matches_hand_matrices(self):
        verts, tris, K, M = hand_p1_matrices()
        be = _boundary_edges_of(tris)
        mesh = Mesh2D(verts, tris, be, np.full(len(be), DIRICHLET, np.uint8))
        stiff, area = _p1_stiffness(mesh, 1.0)
        mass = _p1_mass(mesh, area)
        assert np.allclose(stiff.toarray(), K, atol=1e-14)
        assert np.allclose(mass.toarray(), M, atol=1e-14)

    def test_full_stiffness_rows_sum_to_zero(self):
        mesh = make_structured_mesh(6, 5)
        stiff, _ = _p1_stiffness(mesh, 1.0)
        assert np.allclose(stiff @ np.ones(mesh.num_vertices), 0.0, atol=1e-12)

    def test_contrast_symmetric_and_connected(self):
        prob = build_problem("laplace-contrast:rho=100,seed=2", 900)
        a = prob.matrix.csr
        assert is_symmetric(prob.matrix)
        rel = sp.linalg.norm(a - a.T) / sp.linalg.norm(a)
        assert rel < 1e-14
        ncomp, _ = connected_components(a, directed=False)
        assert ncomp == 1

    def test_helmholtz_is_stiffness_minus_k2_mass(self):
        mesh = make_structured_mesh(8, 6)
        stiff, area = _p1_stiffness(mesh, 1.0)
        mass = _p1_mass(mesh, area)
        prob = assemble_fem(mesh, "helmholtz:k=1.4142135623730951")
        free = prob.free
        want = (stiff - 2.0 * mass).tocsr()[free][:, free]
        assert np.allclose(prob.matrix.csr.toarray(), want.toarray(), atol=1e-12)

    def test_aniso_unsymmetric_with_symmetric_pattern(self):
        prob = build_problem("laplace-aniso:d11=1,d12=1,d21=0,d22=1", 400)
        a = prob.matrix.csr
        assert not is_symmetric(prob.matrix)
        assert sp.linalg.norm(a - a.T) > 1e-8
        pattern = a.copy()
        pattern.data[:] = 1.0
        assert sp.linalg.norm(pattern - pattern.T) == 0

    def test_aniso_has_neumann_top(self):
        prob = build_problem("laplace-aniso:d11=1,d12=1,d21=0,d22=1", 400)
        mesh = prob.mesh
        ytop = mesh.vertices[:, 1].max()
        top = np.abs(mesh.vertices[:, 1] - ytop) < 1e-12
        corners = top & (np.abs(np.abs(mesh.vertices[:, 0]) - 1.0) < 1e-12)
        assert np.all(mesh.vertex_marker[top & ~corners] == NEUMANN)
        assert np.all(mesh.vertex_marker[corners] == DIRICHLET)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            parse_descriptor("wave:k=2")

    @pytest.mark.parametrize(
        "descriptor, key, accepted",
        [
            ("helmholtz:kk=5", "kk", "k"),
            ("helmholtz-poly:k=20,rho=3", "rho", "k"),
            ("laplace-aniso:d12=1,d21=0,rho=3", "rho", "d11, d12, d21, d22"),
            ("laplace-contrast:rho=100,k=2", "k", "rho, seed"),
            ("laplace-contrast:=4", "", "rho, seed"),
        ],
    )
    def test_key_the_family_does_not_read_is_rejected(self, descriptor, key, accepted):
        with pytest.raises(ConfigError, match=f"reads no key '{key}'.*accepts {accepted}$"):
            assemble_fem(make_structured_mesh(4, 3), descriptor)

    @pytest.mark.parametrize(
        "descriptor, item",
        [
            ("helmholtz:k=abc", "k='abc' is not a valid float"),
            ("helmholtz-poly:k=", "k='' is not a valid float"),
            ("laplace-contrast:rho=100,seed=1.5", "seed='1.5' is not a valid int"),
            ("laplace-aniso:d12=one", "d12='one' is not a valid float"),
        ],
    )
    def test_value_that_does_not_parse_is_rejected(self, descriptor, item):
        with pytest.raises(ConfigError, match=item):
            parse_descriptor(descriptor)

    def test_descriptor_values_are_parsed_over_the_defaults(self):
        assert parse_descriptor("laplace-contrast:seed=3") == (
            "laplace-contrast", {"rho": 1.0, "seed": 3})
        assert parse_descriptor("helmholtz") == ("helmholtz", {"k": np.sqrt(2.0)})
        assert parse_descriptor(" laplace-aniso : d12 = 2 ,")[1]["d12"] == 2.0


def load_vector_by_loop(mesh, f, area):
    """Reference for _load_vector: one np.add.at per triangle corner."""
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    fv = f(cent) if callable(f) else np.full(len(cent), float(f))
    contrib = fv * area / 3.0
    b = np.zeros(mesh.num_vertices)
    for k in range(3):
        np.add.at(b, mesh.triangles[:, k], contrib)
    return b


def neumann_load_by_loop(mesh, h):
    """Reference for _neumann_load: one Python step per neumann edge."""
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


class TestLoadVectors:
    @pytest.mark.parametrize("f", [-4.0, lambda p: np.sin(3 * p[:, 0]) * np.exp(p[:, 1])])
    @pytest.mark.parametrize("polygon", [False, True])
    def test_load_vector_is_bitwise_the_loop(self, f, polygon):
        mesh = make_polygon_mesh(L_SHAPED, 0.13) if polygon else make_structured_mesh(23, 11)
        _, area = _p1_stiffness(mesh, 1.0)
        got = _load_vector(mesh, f, area)
        assert got.dtype == np.float64
        assert np.array_equal(got, load_vector_by_loop(mesh, f, area))

    @pytest.mark.parametrize("h", [
        pytest.param(lambda p: np.full(len(p), 0.7), id="0.7"),
        lambda p: np.cos(p[:, 0]) + 2.0 * p[:, 1]])
    def test_neumann_load_is_bitwise_the_loop(self, h):
        # neumann on the top and the right side: the vertices inside each side
        # and the corner between them are each shared by two neumann edges
        mesh = make_structured_mesh(19, 7)
        mesh = apply_neumann_region(mesh, lambda m: (m[:, 1] > 1 - 1e-12) | (m[:, 0] > 1 - 1e-12))
        ends = mesh.boundary_edges[mesh.edge_marker == NEUMANN]
        assert np.bincount(ends.ravel()).max() == 2
        got = _neumann_load(mesh, h)
        want = neumann_load_by_loop(mesh, h)
        assert np.count_nonzero(want) == len(np.unique(ends))
        assert np.array_equal(got, want)


def solve_reduced(prob):
    return spla.spsolve(prob.matrix.csr.tocsc(), prob.rhs)


def manufactured_max_error(descriptor, nx, ny):
    mesh = make_structured_mesh(nx, ny)
    if descriptor.startswith("laplace-aniso"):
        ytop = mesh.vertices[:, 1].max()
        mesh = apply_neumann_region(mesh, lambda m: m[:, 1] > ytop - 1e-12)
    prob = assemble_fem(mesh, descriptor)
    u_h = solve_reduced(prob)
    exact = prob.coords[:, 0] ** 2 + prob.coords[:, 1] ** 2 - 1.0
    return float(np.max(np.abs(u_h - exact)))


class TestConvergence:
    # P1 elements on right-triangle grids reproduce quadratic solutions at
    # the nodes exactly, so the family defaults (u = x^2 + y^2 - 1 with
    # f = -4 and conormal data 2y) must solve to machine precision. This
    # pins the signs of the volume load, the lifting, and the flux term.
    def test_laplace_nodally_exact_for_quadratic(self):
        assert manufactured_max_error("laplace-contrast:rho=1,seed=0", 33, 17) < 1e-12

    def test_aniso_nodally_exact_with_neumann(self):
        desc = "laplace-aniso:d11=1,d12=1,d21=0,d22=1"
        assert manufactured_max_error(desc, 33, 17) < 1e-12

    def test_order_two_for_nonpolynomial_solution(self):
        def exact(p):
            return np.sin(2 * p[:, 0] + p[:, 1])

        def source(p):
            return 5.0 * np.sin(2 * p[:, 0] + p[:, 1])

        errs = []
        for nx, ny in ((17, 9), (33, 17), (65, 33)):
            mesh = make_structured_mesh(nx, ny)
            prob = assemble_fem(
                mesh, "laplace-contrast:rho=1,seed=0", f=source, dirichlet=exact
            )
            u_h = solve_reduced(prob)
            errs.append(np.max(np.abs(u_h - exact(prob.coords))))
        for e1, e2 in zip(errs, errs[1:]):
            assert 4 / 1.5 <= e1 / e2 <= 4 * 1.5


class TestReadMatrixMarket:
    def test_reads_with_default_rhs(self, tmp_path):
        scipy.io.mmwrite(tmp_path / "a.mtx", sp.identity(4, format="csr"))
        np.savetxt(tmp_path / "xy.txt", [(0, 0), (1, 0), (0, 1), (1, 1)])
        prob = read_matrix_market(tmp_path / "a.mtx", tmp_path / "xy.txt")
        assert np.array_equal(prob.rhs, np.ones(4))
        assert is_symmetric(prob.matrix)

    def test_count_mismatch_raises(self, tmp_path):
        scipy.io.mmwrite(tmp_path / "a.mtx", sp.identity(4, format="csr"))
        np.savetxt(tmp_path / "xy.txt", [(0, 0), (1, 0), (0, 1)])
        with pytest.raises(DimensionError):
            read_matrix_market(tmp_path / "a.mtx", tmp_path / "xy.txt")


class TestProblemInstanceContract:
    def test_dims_must_agree(self):
        from ndlu.core import SparseMatrix

        with pytest.raises(DimensionError):
            ProblemInstance(
                matrix=SparseMatrix(sp.identity(3, format="csr")),
                rhs=np.ones(2),
                coords=np.zeros((3, 2)),
            )

    def test_build_sizes_near_target(self):
        for desc in ("helmholtz:k=1.41", "laplace-contrast:rho=10,seed=1"):
            prob = build_problem(desc, 4096)
            assert 0.7 * 4096 <= prob.n <= 1.3 * 4096


def _clockwise_triangle():
    mesh = Mesh2D(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                  np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]),
                  np.full(3, DIRICHLET, dtype=np.uint8))
    return assemble_fem(mesh, "helmholtz:k=1")


def _neumann_top():
    mesh = make_structured_mesh(5, 4)
    return apply_neumann_region(mesh, lambda m: m[:, 1] > 1 - 1e-12)


# (call, error, message) of input checks on the way to a problem
SETUP_CHECKS = {
    "structured-1x5": (lambda: make_structured_mesh(1, 5), ConfigError,
                       "nx must be an int >= 2"),
    "fractional-nx": (lambda: make_structured_mesh(2.5, 3), ConfigError,
                      "nx must be an int >= 2"),
    "nx-as-text": (lambda: make_structured_mesh("3", 3), ConfigError,
                   "nx must be an int >= 2"),
    "nx-none": (lambda: make_structured_mesh(None, 3), ConfigError,
                "nx must be an int >= 2"),
    "ny-one": (lambda: make_structured_mesh(3, 1), ConfigError,
               "ny must be an int >= 2"),
    "two-vertex-polygon": (lambda: make_polygon_mesh([(0, 0), (1, 0)], 0.2),
                           GeometryError, "at least 3 vertices"),
    "zero-spacing": (lambda: make_polygon_mesh(L_SHAPED, 0), ConfigError,
                     "target_h must be positive"),
    "spacing-as-text": (lambda: make_polygon_mesh(L_SHAPED, "a"), ConfigError,
                        "target_h must be positive"),
    "spacing-none": (lambda: make_polygon_mesh(L_SHAPED, None), ConfigError,
                     "target_h must be positive"),
    "spacing-nan": (lambda: make_polygon_mesh(L_SHAPED, float("nan")),
                    ConfigError, "target_h must be positive"),
    # vertex 3 lies on edge 0, which is not adjacent to edge 2 ending there
    "vertex-on-an-edge": (
        lambda: make_polygon_mesh([(0, 0), (4, 0), (4, 4), (2, 0)], 0.5),
        GeometryError, "edges 0 and 2 intersect"),
    "item-without-value": (lambda: parse_descriptor("helmholtz:k"),
                           ConfigError, "bad descriptor item 'k'"),
    "clockwise-triangle": (_clockwise_triangle, DimensionError,
                           "CCW with positive area"),
    "descriptor-not-a-str": (lambda: parse_descriptor(5), ConfigError,
                             "descriptor must be a str"),
    "build-without-descriptor": (lambda: build_problem(None, 100), ConfigError,
                                 "descriptor must be a str"),
    # the 5 x 4 mesh has 4 top edges; only laplace-aniso has flux data
    "neumann-on-contrast": (
        lambda: assemble_fem(_neumann_top(), "laplace-contrast"), ConfigError,
        "laplace-contrast has no flux data for the mesh's 4 Neumann edges"),
    "neumann-on-helmholtz": (
        lambda: assemble_fem(_neumann_top(), "helmholtz"), ConfigError,
        "helmholtz has no flux data for the mesh's 4 Neumann edges"),
    "negative-size": (lambda: build_problem("helmholtz:k=5", -5), ConfigError,
                      "target_n must be an int >= 1"),
    "size-as-text": (lambda: build_problem("helmholtz:k=5", "9"), ConfigError,
                     "target_n must be an int >= 1"),
    "fractional-size": (lambda: build_problem("laplace-aniso", 2.5),
                        ConfigError, "target_n must be an int >= 1"),
    "contrast-negative-seed": (
        lambda: build_problem("laplace-contrast:rho=100,seed=-1", 50),
        ConfigError, "seed must be an int >= 0, got -1"),
    "constant-contrast-negative-seed": (
        lambda: build_problem("laplace-contrast:rho=1,seed=-1", 50),
        ConfigError, "seed must be an int >= 0, got -1"),
    "contrast-nan-rho": (
        lambda: build_problem("laplace-contrast:rho=nan", 50), ConfigError,
        "laplace-contrast: rho='nan' must be finite"),
    "contrast-field-nan-rho": (
        lambda: make_contrast_field(float("nan"), 0), ConfigError,
        "contrast rho must be >= 1, got nan"),
    "contrast-inf-rho": (
        lambda: build_problem("laplace-contrast:rho=inf", 50), ConfigError,
        "laplace-contrast: rho='inf' must be finite"),
    "helmholtz-nan-k": (
        lambda: build_problem("helmholtz:k=nan", 50), ConfigError,
        "helmholtz: k='nan' must be finite"),
    "helmholtz-inf-k": (
        lambda: build_problem("helmholtz:k=inf", 50), ConfigError,
        "helmholtz: k='inf' must be finite"),
    # k * k overflows to inf, which the matrix gate rejects; k ** 2 raised
    # a bare OverflowError
    "helmholtz-overflowing-k": (
        lambda: build_problem("helmholtz:k=1e200", 100), NonFiniteError,
        "matrix entries must be finite"),
    "aniso-nan-d11": (
        lambda: build_problem("laplace-aniso:d11=nan", 50), ConfigError,
        "laplace-aniso: d11='nan' must be finite"),
    "one-dimensional-polygon": (
        lambda: make_polygon_mesh([0.0, 1.0, 2.0], 0.2), GeometryError,
        r"polygon must be an \(m, 2\) array of finite real numbers, "
        r"got shape \(3,\), dtype float64"),
    "polygon-as-text": (
        lambda: make_polygon_mesh("abc", 0.2), GeometryError,
        r"polygon must be an \(m, 2\) array of finite real numbers, "
        r"got shape \(\), dtype <U3"),
    "ragged-polygon": (
        lambda: make_polygon_mesh([(0, 0), (1, 0), (1,)], 0.2), GeometryError,
        r"polygon must be an \(m, 2\) array: setting an array element"),
    # both pass the polygon checks, and Delaunay finds their samples flat
    "collinear-polygon": (
        lambda: make_polygon_mesh([(0, 0), (1, 0), (2, 0)], 0.2),
        GeometryError, "polygon has no area to mesh"),
    "flat-triangle": (
        lambda: make_polygon_mesh([(0, 0), (1, 0), (0.5, 1e-16)], 0.2),
        GeometryError, "polygon has no area to mesh"),
    "polygon-nan-vertex": (
        lambda: make_polygon_mesh([(0, 0), (1, 0), (np.nan, 1)], 0.2),
        GeometryError, r"polygon must be an \(m, 2\) array of finite real"),
}


@pytest.mark.parametrize("case", SETUP_CHECKS)
def test_setup_input_checks_raise_their_ndlu_error(case):
    call, error, message = SETUP_CHECKS[case]
    with pytest.raises(error, match=message):
        call()
