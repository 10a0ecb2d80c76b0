"""Digest of every factor payload of the benchmark workloads.

Run from the repository root:

    python scripts/factor_digest.py [workload ...]

For each workload of perfbench/workloads.py (all of them by default) this
builds the matrix at its benchmark size, dissects and factors it with the
default options on the package in ./src, and prints the factor nnz, the
relative residual of the solve of the load vector (res_load, the benchmark's
residual_load) and one BLAKE2b digest over every field of every factor in
factor order, arrays by shape, dtype and bytes. Two checkouts that print the
same digest on the same machine made bitwise-identical factors; a change that
moves the factors only at roundoff shows the same nnz and a res_load that
agrees to many digits. BLAS runs one thread, as in the benchmark.
"""

import os
import sys
from pathlib import Path

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import hashlib  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ndlu import assembly, dissection, factor, solver  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def factor_digest(factors):
    h = hashlib.blake2b(digest_size=12)
    for f in factors:
        h.update(type(f).__name__.encode())
        for name, value in sorted(vars(f).items()):
            h.update(name.encode())
            if isinstance(value, np.ndarray):
                h.update(f"{value.shape}{value.dtype}".encode())
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


def main(names):
    for name in names or list(WORKLOADS):
        w = WORKLOADS[name]
        p = assembly.build_problem(w.descriptor, w.target_n)
        tree = dissection.build_dissection(p.matrix, p.coords)
        fac = factor.factorize(p.matrix, tree, w.eps, factor.FactorOptions())
        _, report = solver.solve(fac, p.matrix, p.rhs)
        print(f"{name} n={p.n} factors={len(fac.factors)} "
              f"nnz={fac.factor_nnz} res_load={report.residual:.9e} "
              f"digest={factor_digest(fac.factors)}")


if __name__ == "__main__":
    main(sys.argv[1:])
