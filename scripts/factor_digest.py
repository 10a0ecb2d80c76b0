"""Digest of every factor payload of the benchmark workloads and of a fixed
set of small option sets.

Run from the repository root:

    python scripts/factor_digest.py [workload ...]

For each workload of perfbench/workloads.py (all of them by default) this
builds the matrix at its benchmark size, dissects and factors it with the
default options on the package in ./src, and prints the factor nnz, the
relative residual of the solve of the load vector (res_load, the benchmark's
residual_load) and four BLAKE2b digests: one of the problem (problem: the
matrix's CSR arrays, the rhs and the coordinates), one of the dissection
(tree: the nested order and every split event), one over every field of
every compiled stage in stage order, its factor records and its sparse
operators included, arrays by shape, dtype and bytes (digest), and one over
the bytes of the load vector's solution (sol). With no workload named it
then does the same for the four problem families at n~4k under each of the
OPTION_SETS below, so that a refactor can be checked at two size floors
and, through the complex copy (1+0.5j)A, on the LU path of every family as
well. Two checkouts that
print the same digests on the same machine made bitwise-identical trees and
factors; a change that moves the factors only at roundoff shows the same nnz
and a res_load that agrees to many digits. BLAS runs one thread, as in the
benchmark.
"""

import os
import sys
from pathlib import Path

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import hashlib  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ndlu import SparseMatrix, assembly, dissection, factor, solver  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL_N = 4096
SMALL_EPS = 1e-4
FAMILIES = (
    "laplace-contrast:rho=100,seed=1",
    "helmholtz:k=5",
    "helmholtz-poly:k=20",
    "laplace-aniso:d12=1,d21=0",
)
# (matrix scale, options) per set. The floor of 16 compresses most levels,
# the floor of 8 runs the decomposition on the most (and smallest) blocks; a
# complex matrix is never symmetric, so the complex set takes the LU path on
# every family.
OPTION_SETS = {
    "floor16": (1, dict(min_sparsify_size=16)),
    "floor8": (1, dict(min_sparsify_size=8)),
    "complex": (1 + 0.5j, dict(min_sparsify_size=16)),
}


def _update(h, value):
    """Hash an array by shape, dtype and bytes, a sparse matrix by its
    format, shape and arrays, a list item by item, anything else by its
    repr."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.shape}{value.dtype}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif sp.issparse(value):
        h.update(f"{value.format}{value.shape}".encode())
        for arr in (value.data, value.indices, value.indptr):
            _update(h, arr)
    elif isinstance(value, list):
        _update_items(h, value)
    else:
        h.update(repr(value).encode())


def _update_items(h, items):
    """Hash each item's type name, then the item itself if it is an array
    or a sparse matrix, else each of its fields by name."""
    for item in items:
        h.update(type(item).__name__.encode())
        if isinstance(item, np.ndarray) or sp.issparse(item):
            _update(h, item)
            continue
        for name, value in sorted(vars(item).items()):
            h.update(name.encode())
            _update(h, value)


def _digest(items):
    """One digest over arrays, sparse matrices and the fields of other
    items."""
    h = hashlib.blake2b(digest_size=12)
    _update_items(h, items)
    return h.hexdigest()


def problem_digest(problem):
    """Digest of a problem's matrix (CSR arrays), rhs and coordinates."""
    return _digest([problem.matrix.csr, problem.rhs, problem.coords])


def report(label, problem, eps, options, scale=1):
    matrix = problem.matrix
    if scale != 1:
        matrix = SparseMatrix(matrix.csr * scale)
    tree = dissection.build_dissection(matrix, problem.coords)
    fac = factor.factorize(matrix, tree, eps, options)
    x, rep = solver.solve(fac, matrix, problem.rhs)
    print(f"{label} n={problem.n} factors={len(fac.factors)} "
          f"nnz={fac.factor_nnz} res_load={rep.residual:.9e} "
          f"problem={problem_digest(problem)} "
          f"tree={_digest([tree.order, *tree.events])} "
          f"digest={_digest(fac.stages)} sol={_digest([x])}", flush=True)


def main(names):
    for name in names or list(WORKLOADS):
        w = WORKLOADS[name]
        report(name, assembly.build_problem(w.descriptor, w.target_n), w.eps,
               factor.FactorOptions())
    if names:
        return
    for family in FAMILIES:
        problem = assembly.build_problem(family, SMALL_N)
        for label, (scale, kwargs) in OPTION_SETS.items():
            report(f"{family}/{label}", problem, SMALL_EPS,
                   factor.FactorOptions(**kwargs), scale)


if __name__ == "__main__":
    main(sys.argv[1:])
