"""Run the tests with BLAS on one thread, as the benchmark and
scripts/factor_digest.py do. pytest loads this file before any test module
imports numpy, which reads these variables when it loads its BLAS."""

import os

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
