"""The assembled problems and the dissection trees are pinned bitwise,
through the digest of scripts/factor_digest.py, and that script's report is
kept working."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import Delaunay

from ndlu import SparseMatrix, assembly, dissection, factor

ROOT = Path(__file__).resolve().parents[1]


def _load_digest_tool():
    spec = importlib.util.spec_from_file_location(
        "factor_digest", ROOT / "scripts" / "factor_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DIGEST = _load_digest_tool()

# tree= of `python scripts/factor_digest.py` for each family at n=4096. The
# two structured-grid families with isotropic coefficients share one tree.
TREES = {
    "laplace-contrast:rho=100,seed=1": "b2fa74bd41ac703711e02646",
    "helmholtz:k=5": "b2fa74bd41ac703711e02646",
    "helmholtz-poly:k=20": "69fe08bc1ecfd0819b232563",
    "laplace-aniso:d12=1,d21=0": "2df85a7c0d2a832c18df7a57",
}

# tree= of `python scripts/factor_digest.py` for each benchmark workload at
# its benchmark size (perfbench/workloads.py). The dissection is a large
# share of the benchmark's factor_s, and these are the trees it builds.
WORKLOAD_TREES = {
    "aniso-unsym": "603b4041472a544ab11b42c9",
    "poly-multirhs": "d9f843d69490edbdbd19b109",
}

# problem= of `python scripts/factor_digest.py` for each family at n=4096:
# the matrix's CSR arrays, the rhs and the coordinates.
PROBLEMS = {
    "laplace-contrast:rho=100,seed=1": "22299895a34e6fa448b50215",
    "helmholtz:k=5": "6ddd88a4348755e7adcc73de",
    "helmholtz-poly:k=20": "ecad681423a3b3decd1ff14d",
    "laplace-aniso:d12=1,d21=0": "82e910573bf55ac696f39995",
}


@pytest.mark.parametrize("family", sorted(PROBLEMS))
def test_problems_are_bitwise_those_of_the_reference(family):
    problem = assembly.build_problem(family, DIGEST.SMALL_N)
    assert DIGEST.problem_digest(problem) == PROBLEMS[family]


@pytest.mark.parametrize("family", sorted(TREES))
def test_trees_are_bitwise_those_of_the_reference(family):
    problem = assembly.build_problem(family, DIGEST.SMALL_N)
    tree = dissection.build_dissection(problem.matrix, problem.coords)
    assert DIGEST._digest([tree.order, *tree.events]) == TREES[family]
    assert tree.validate_separation()


@pytest.mark.parametrize("name", sorted(WORKLOAD_TREES))
def test_benchmark_trees_are_bitwise_those_of_the_reference(name):
    w = DIGEST.WORKLOADS[name]
    problem = assembly.build_problem(w.descriptor, w.target_n)
    tree = dissection.build_dissection(problem.matrix, problem.coords)
    assert DIGEST._digest([tree.order, *tree.events]) == WORKLOAD_TREES[name]


def test_tree_of_a_random_delaunay_mesh_is_bitwise_the_reference(monkeypatch):
    # The greedy edge cover never runs on the problem families; on a random
    # Delaunay mesh with small leaves it runs on dozens of nodes.
    rng = np.random.default_rng(0)
    pts = rng.uniform(size=(3000, 2))
    tri = Delaunay(pts).simplices
    edges = np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    a = sp.coo_matrix((np.ones(len(edges)), edges.T), shape=(3000, 3000)).tocsr()
    covers = []
    cover = dissection._greedy_edge_cover

    def counted_cover(src, dst):
        covers.append(len(src))
        return cover(src, dst)

    monkeypatch.setattr(dissection, "_greedy_edge_cover", counted_cover)
    monkeypatch.setattr(dissection, "LEAF_SIZE", 16)
    tree = dissection.build_dissection(
        SparseMatrix((a + a.T + sp.identity(3000)).tocsr()), pts)
    assert len(covers) > 10
    assert DIGEST._digest([tree.order, *tree.events]) == "aa948300fe06df599489d616"
    assert tree.validate_separation()


def test_digest_report_prints_every_digest(capsys):
    problem = assembly.build_problem(DIGEST.FAMILIES[3], 256)
    DIGEST.report("tiny", problem, 1e-4, factor.FactorOptions())
    line = capsys.readouterr().out
    for key in ("problem=", "tree=", "digest=", "sol="):
        assert key in line
