"""Memory of the pipeline's two largest passes, measured with tracemalloc
(numpy reports its array buffers to it): factorize keeps little beside the
stage arrays it returns, and build_problem's peak stays bounded per
unknown."""

import tracemalloc

import numpy as np
import pytest

from ndlu import assembly, dissection, factor

FAMILY = "laplace-aniso:d12=1,d21=0"
N = 16384


def _traced_peak(fn, *args):
    """(fn(*args), the peak of the memory it allocated, in bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stage_bytes(fac):
    """Bytes of every array of the stages' operators, each counted once (a
    transposed view shares its matrix's arrays)."""
    arrays = {}
    for stage in fac.stages:
        for m in (stage.lower, stage.diag, stage.pull, stage.push):
            if m is not None:
                for a in (m.data, m.indices, m.indptr):
                    arrays[id(a)] = a
    return sum(a.nbytes for a in arrays.values())


@pytest.fixture(scope="module")
def problem():
    p, peak = _traced_peak(assembly.build_problem, FAMILY, N)
    return p, peak


def test_build_problem_peak_is_bounded_per_unknown(problem):
    # the element temporaries die before the matrix is summed, and the COO
    # indices are int32: about 850 bytes per unknown, against 1,500 when
    # both were kept
    p, peak = problem
    assert peak <= 1100 * p.n


def test_factorize_peak_stays_near_its_stage_arrays(problem):
    # payloads are compiled in chunks as the kernels make them and the
    # store is read and written in bounded batches; holding every dense
    # payload of the leaf step until the end reads 2.47
    p, _ = problem
    tree = dissection.build_dissection(p.matrix, p.coords)
    fac, peak = _traced_peak(factor.factorize, p.matrix, tree, 1e-4)
    assert not fac.symmetric and fac.factor_nnz > 0
    assert peak <= 1.9 * _stage_bytes(fac)
