"""One workload run: repeated pipeline passes, correctness checks and the
metrics the benchmark reports.

Every pass calls the public pipeline through the module attributes
(``assembly.build_problem`` and so on), so that `spans.instrument` can trace
a pass without any change to the package.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from ndlu import assembly, dissection, factor, solver
from ndlu.dissection import JUNCTION

import spans
from workloads import right_hand_sides

# setup_s is the noisiest timing, so it is taken from at least this many
# build_problem calls per run.
MIN_SETUPS = 5
# Size of the untimed pass that loads lazily imported code before timing.
WARMUP_N = 1024


@dataclass
class Pass:
    """Timings, outcomes and output summaries of one pipeline pass."""

    setup_s: float
    factor_s: float
    solve_s: list
    residuals: list
    failed: int
    factor_nnz: int
    shape: dict


def _dense_flops(f):
    """Floating-point operations of one elimination's dense kernels, computed
    from its payload shapes."""
    if f.kind == "sparsify":
        return 0
    k, m = f.idx.size, f.nbr.size
    if isinstance(f, factor.SymEliminationFactor):
        # LDL^T, one triangular solve, the D^-1 product, the Schur product
        return k ** 3 // 3 + 3 * k * k * m + 2 * m * m * k
    # LU, two triangular solves, the Schur product
    return 2 * k ** 3 // 3 + 2 * k * k * m + 2 * m * m * k


def output_shape(tree, fac):
    """Counts read from the dissection tree and the factorization."""
    kinds = {"interior-lu": 0, "eliminate": 0, "sparsify": 0}
    for f in fac.factors:
        kinds[f.kind] += f.payload_nnz
    return {
        "dissection.levels": tree.levels,
        "dissection.leaves": len(tree.leaves),
        "dissection.separators": len(tree.separators),
        "dissection.segments": len(tree.segments),
        "dissection.split_events": len(tree.events),
        "dissection.junction_segments": sum(s.kind == JUNCTION for s in tree.segments.values()),
        "dissection.separator_vertices": sum(s.size for s in tree.separators),
        "factor.nnz_interior": kinds["interior-lu"],
        "factor.nnz_eliminate": kinds["eliminate"],
        "factor.nnz_sparsify": kinds["sparsify"],
        "factor.factors": len(fac.factors),
        # a segment with no neighbors left sparsifies to an empty skeleton;
        # only levels where some skeleton interpolates a redundant set count
        "factor.levels_compressed": len({f.level for f in fac.factors
                                         if f.kind == "sparsify" and f.interp.size}),
        "factor.dense_flops": sum(_dense_flops(f) for f in fac.factors),
    }


def check_solve(csr, b, x, report, target):
    """The relative residual of x, recomputed here, and whether the solve
    passes: x is finite, its residual is within target, and the residual
    the solver reported agrees with the recomputed one."""
    if not np.all(np.isfinite(x)):
        return math.inf, False
    res = float(np.linalg.norm(b - csr @ x) / np.linalg.norm(b))
    agrees = math.isclose(report.residual, res, rel_tol=1e-6, abs_tol=1e-300)
    return res, res <= target and agrees


def run_pass(workload, seed, target_n):
    """build_problem, build_dissection, factorize, then one solve per column."""
    t0 = time.perf_counter()
    problem = assembly.build_problem(workload.descriptor, target_n)
    t1 = time.perf_counter()
    tree = dissection.build_dissection(problem.matrix, problem.coords)
    fac = factor.factorize(problem.matrix, tree, workload.eps, factor.FactorOptions())
    t2 = time.perf_counter()

    rhs = right_hand_sides(problem.rhs, workload.num_rhs, seed)
    csr = problem.matrix.csr
    solve_s, residuals, failed = [], [], 0
    for j in range(rhs.shape[1]):
        b = rhs[:, j]
        ts = time.perf_counter()
        try:
            x, report = solver.solve(fac, problem.matrix, b)
        except Exception:  # a solve that raises counts as failed
            solve_s.append(time.perf_counter() - ts)
            residuals.append(math.inf)
            failed += 1
            traceback.print_exc()
            continue
        solve_s.append(time.perf_counter() - ts)
        res, ok = check_solve(csr, b, x, report, workload.accuracy_target)
        residuals.append(res)
        failed += not ok
    return Pass(setup_s=t1 - t0, factor_s=t2 - t1, solve_s=solve_s,
                residuals=residuals, failed=failed, factor_nnz=fac.factor_nnz,
                shape=output_shape(tree, fac))


def warm_up(workload):
    """One small untimed pass, so lazy imports and first calls are not timed."""
    run_pass(workload, 0, WARMUP_N)


def _repeat(step, seconds):
    """Call step() at least once, and again until another call would likely
    end past `seconds`."""
    start = time.perf_counter()
    out = []
    while True:
        gc.collect()
        out.append(step())
        elapsed = time.perf_counter() - start
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def _setup_times(workload, passes, target_n):
    times = [p.setup_s for p in passes]
    while len(times) < MIN_SETUPS:
        t0 = time.perf_counter()
        assembly.build_problem(workload.descriptor, target_n)
        times.append(time.perf_counter() - t0)
    return times


def _solution_s(passes):
    """factor_s plus the solve of every right-hand side, each part the median
    over passes, so that one slow pass moves it no more than it moves its
    parts."""
    factor_s = statistics.median(p.factor_s for p in passes)
    return factor_s + sum(statistics.median(times) for times in zip(*(p.solve_s for p in passes)))


def _consistency(passes):
    """Problems found when passes over the same inputs disagree."""
    first = passes[0]
    problems = []
    for p in passes[1:]:
        if p.factor_nnz != first.factor_nnz or p.shape != first.shape:
            problems.append("factorization differs between passes over the same inputs")
        if p.residuals != first.residuals:
            problems.append("residuals differ between passes over the same inputs")
    return sorted(set(problems))


def untraced_run(workload, seed, seconds, target_n=None):
    """End-to-end metrics of the workload, measured with tracing off."""
    target_n = target_n or workload.target_n
    warm_up(workload)
    passes = _repeat(lambda: run_pass(workload, seed, target_n), seconds)
    setups = _setup_times(workload, passes, target_n)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(p.residuals) for p in passes)
    failed = sum(p.failed for p in passes)
    first = passes[0]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "factor_s": (statistics.median(p.factor_s for p in passes), "s"),
        "solve_s": (statistics.median(t for p in passes for t in p.solve_s), "s"),
        "solution_s": (_solution_s(passes), "s"),
        "residual_load": (first.residuals[0], "ratio"),
        "factor_nnz": (first.factor_nnz, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "solved_frac": (1.0 - failed / attempted, "ratio"),
    }
    report = {
        "residual_max": max(max(p.residuals) for p in passes),
        "failed_frac": failed / attempted,
        "passes": len(passes),
        "setup_samples": setups,
        "factor_samples": [p.factor_s for p in passes],
        "reference": splu_reference(workload, target_n),
    }
    return metrics, attempted, failed, _consistency(passes), report


def splu_reference(workload, target_n):
    """scipy's splu on the same matrix: time and L+U nnz, not gated.

    Called after peak_rss_mb is read so that its memory cannot raise ndlu's
    high-water mark.
    """
    problem = assembly.build_problem(workload.descriptor, target_n)
    csc = problem.matrix.csr.tocsc()
    t0 = time.perf_counter()
    lu = spla.splu(csc)
    seconds = time.perf_counter() - t0
    x = lu.solve(problem.rhs)
    res = float(np.linalg.norm(problem.rhs - csc @ x) / np.linalg.norm(problem.rhs))
    return {"splu_s": seconds, "splu_lu_nnz": int(lu.L.nnz + lu.U.nnz), "splu_residual": res}


def traced_run(workload, seed, seconds, target_n=None, spans_path=None):
    """Per-layer metrics from traced passes, each paired with an untraced one.

    The traced passes must reproduce the untraced factor_nnz, residuals and
    output counts exactly; otherwise the wrappers changed the program and the
    run is not correct.
    """
    target_n = target_n or workload.target_n
    warm_up(workload)
    last_tracer = [None]  # only the last pass's spans are kept and written

    def pair():
        plain = run_pass(workload, seed, target_n)
        gc.collect()
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            traced = run_pass(workload, seed, target_n)
        last_tracer[0] = tracer
        return plain, traced, spans.layer_metrics(tracer)

    pairs = _repeat(pair, seconds)
    plain = [p for p, _, _ in pairs]
    traced = [t for _, t, _ in pairs]
    problems = _consistency(plain + traced)

    # median_low keeps each value a measured one, so counts stay whole
    layers = {name: statistics.median_low(m[name] for _, _, m in pairs) for name in pairs[0][2]}
    layers.update(traced[0].shape)
    layers["solver.residual_max"] = max(traced[0].residuals)
    layers["trace.overhead_s"] = _solution_s(traced) - _solution_s(plain)
    metrics = {name: (layers[name], spans.LAYER_MAP[name][0]) for name in spans.LAYER_MAP}

    if spans_path is not None:
        last_tracer[0].write(spans_path, {"workload": workload.name, "seed": seed})
    attempted = sum(len(p.residuals) for p in plain + traced)
    failed = sum(p.failed for p in plain + traced)
    report = {"passes": len(pairs), "spans": len(last_tracer[0].names)}
    return metrics, attempted, failed, problems, report
