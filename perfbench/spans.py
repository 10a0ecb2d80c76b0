"""Tracing ndlu from outside the package.

`instrument` replaces public functions of ndlu's modules with wrappers that
record one span per call (name, start, end, parent span) and, for a few of
them, counts taken from the call's arguments or result. The wrappers live
here, in the benchmark; the package itself is not changed. `layer_metrics`
turns the spans of one pipeline pass into the per-layer metrics listed in
LAYER_MAP.

A span's self time is its duration minus the durations of its child spans.
Time spent in numpy or scipy called directly from a wrapped function counts
as that function's self time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# Per-layer metric -> (unit, better, end-to-end metrics it should move,
# workloads where it should move them). The list is fixed before any
# optimisation is measured, so a later change can cite the prediction.
LAYER_MAP = {
    "meshing.mesh_s": ("s", "lower", "setup_s", "poly-multirhs (Delaunay mesh)"),
    "assembly.fem_s": ("s", "lower", "setup_s", "poly-multirhs"),
    "dissection.build_s": ("s", "lower", "factor_s", "contrast-sym ~30%, poly-multirhs ~10%"),
    "dissection.find_separator_s": ("s", "lower", "factor_s", "contrast-sym, poly-multirhs"),
    "dissection.find_separator_calls": ("count", "lower", "factor_s", "all"),
    "dissection.split_subset_s": ("s", "lower", "factor_s", "contrast-sym (O(n^2/leaf) masks)"),
    "dissection.levels": ("count", "lower", "factor_s, factor_nnz", "all; repeats exactly"),
    "dissection.leaves": ("count", "lower", "factor_s, factor_nnz", "all; repeats exactly"),
    "dissection.separators": ("count", "lower", "factor_s, factor_nnz", "all; repeats exactly"),
    "dissection.segments": ("count", "lower", "factor_s, factor_nnz", "all; repeats exactly"),
    "dissection.split_events": ("count", "lower", "factor_s, factor_nnz", "all; repeats exactly"),
    "dissection.junction_segments": ("count", "lower", "factor_s, factor_nnz", "all; repeats exactly"),
    "dissection.separator_vertices": ("count", "lower", "factor_s, factor_nnz", "all; repeats exactly"),
    "factor.interiors_s": ("s", "lower", "factor_s, peak_rss_mb", "aniso-unsym (about half of factorize), contrast-sym"),
    "factor.eliminate_s": ("s", "lower", "factor_s, peak_rss_mb", "aniso-unsym, contrast-sym; small on poly-multirhs"),
    "factor.merge_s": ("s", "lower", "factor_s, peak_rss_mb", "aniso-unsym, contrast-sym; small on poly-multirhs"),
    "factor.schur_block_updates": ("count", "lower", "factor_s, peak_rss_mb", "contrast-sym (~161k calls), aniso-unsym"),
    "factor.schur_update_s": ("s", "lower", "factor_s", "contrast-sym, aniso-unsym"),
    "factor.schur_entries_peak": ("count", "lower", "factor_s, peak_rss_mb", "aniso-unsym (mirror blocks double it)"),
    "factor.sparsify_s": ("s", "lower", "factor_s", "contrast-sym, aniso-unsym"),
    "factor.sparsify_calls": ("count", "lower", "factor_s", "contrast-sym, aniso-unsym"),
    "factor.sparsify_useful_frac": ("ratio", "higher", "factor_nnz, residual_load", "contrast-sym, aniso-unsym"),
    "factor.levels_compressed": ("count", "higher", "factor_nnz, residual_load", "contrast-sym, aniso-unsym; level 2 only on poly-multirhs"),
    "factor.skeleton_frac": ("ratio", "lower", "factor_nnz, residual_load", "contrast-sym, aniso-unsym"),
    "factor.nnz_interior": ("count", "lower", "factor_nnz, peak_rss_mb", "all"),
    "factor.nnz_eliminate": ("count", "lower", "factor_nnz, peak_rss_mb", "all"),
    "factor.nnz_sparsify": ("count", "lower", "factor_nnz", "contrast-sym, aniso-unsym"),
    "factor.factors": ("count", "lower", "factor_nnz, solve_s", "all"),
    "factor.dense_flops": ("flop", "lower", "factor_s", "all; computed from payload shapes, not measured"),
    "lowrank.id_s": ("s", "lower", "factor_s", "contrast-sym, aniso-unsym (joint ID)"),
    "lowrank.id_calls": ("count", "lower", "factor_s", "contrast-sym, aniso-unsym"),
    "lowrank.plan_s": ("s", "lower", "factor_s", "contrast-sym, aniso-unsym"),
    "lowrank.cols_in": ("count", "higher", "factor_nnz", "contrast-sym, aniso-unsym"),
    "lowrank.rank_out": ("count", "lower", "factor_nnz, residual_load", "contrast-sym, aniso-unsym"),
    "core.lu_s": ("s", "lower", "factor_s", "aniso-unsym (0 on LDL workloads)"),
    "core.lu_calls": ("count", "lower", "factor_s", "aniso-unsym (0 on LDL workloads)"),
    "core.trisolve_s": ("s", "lower", "factor_s, solve_s", "aniso-unsym; solve passes on poly-multirhs"),
    "core.trisolve_calls": ("count", "lower", "factor_s, solve_s", "all"),
    "solver.left_s": ("s", "lower", "solve_s, solution_s", "poly-multirhs"),
    "solver.middle_s": ("s", "lower", "solve_s, solution_s", "poly-multirhs (0 on aniso-unsym)"),
    "solver.right_s": ("s", "lower", "solve_s, solution_s", "poly-multirhs"),
    "solver.residual_s": ("s", "lower", "solve_s, solution_s", "poly-multirhs"),
    "solver.factor_applications": ("count", "lower", "solve_s", "poly-multirhs"),
    "solver.residual_max": ("ratio", "lower", "solved_frac", "all; worst over the seeded random columns"),
    "meshing.self_s": ("s", "lower", "setup_s", "poly-multirhs"),
    "assembly.self_s": ("s", "lower", "setup_s", "all"),
    "dissection.self_s": ("s", "lower", "factor_s", "all"),
    "factor.self_s": ("s", "lower", "factor_s", "contrast-sym, aniso-unsym (Python bookkeeping, LDL)"),
    "lowrank.self_s": ("s", "lower", "factor_s", "contrast-sym, aniso-unsym"),
    "core.self_s": ("s", "lower", "factor_s, solve_s", "aniso-unsym"),
    "solver.self_s": ("s", "lower", "solve_s", "poly-multirhs"),
    "trace.overhead_s": ("s", "lower", "none (cost of tracing: traced minus untraced solution_s)", "all"),
}


def _schur_entries(state, counters):
    counters["factor.schur_entries_peak"] = max(
        counters["factor.schur_entries_peak"], state.total_block_entries())


def _after_interiors(counters, args, result):
    _schur_entries(result[0], counters)


def _after_stage(counters, args, result):
    _schur_entries(args[0], counters)


def _after_sparsify(counters, args, result):
    new_factors, skeleton = result
    counters["factor.sparsify_useful"] += bool(new_factors)
    counters["factor.segment_size_sum"] += args[1].size
    counters["factor.skeleton_size_sum"] += len(skeleton)


def _after_id(counters, args, result):
    counters["lowrank.cols_in"] += result.num_columns
    counters["lowrank.rank_out"] += len(result.skeleton)


# (module, attribute, observer). Observers read counts from the call's
# arguments or result; the sizes they read are those the call saw.
TARGETS = (
    ("assembly", "build_problem", None),
    ("assembly", "assemble_fem", None),
    ("meshing", "make_structured_mesh", None),
    ("meshing", "make_polygon_mesh", None),
    ("meshing", "apply_neumann_region", None),
    ("dissection", "build_dissection", None),
    ("dissection", "find_separator", None),
    ("dissection", "split_subset", None),
    ("factor", "factorize", None),
    ("factor", "eliminate_interiors", _after_interiors),
    ("factor", "sparsify_segment", _after_sparsify),
    ("factor", "eliminate_segments", _after_stage),
    ("factor", "merge_segments", _after_stage),
    ("factor", "SchurState.add_to_block", None),
    ("lowrank", "sampled_id", _after_id),
    ("lowrank", "joint_unsymmetric_id", _after_id),
    ("lowrank", "build_hybrid_plan", None),
    ("core", "lu_compact", None),
    ("core", "triangular_solve", None),
    ("solver", "solve", None),
    ("solver", "apply_factor_left", None),
    ("solver", "apply_factor_middle", None),
    ("solver", "apply_factor_right", None),
    ("solver", "residual_with_flag", None),
)


class Tracer:
    """Spans of one pipeline pass, kept in memory as parallel lists."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, observe=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, counters = self.parents, self._stack, self.counters
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def write(self, path, header):
        """Write the spans, times relative to the first start, gzipped."""
        index = {}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [index.setdefault(n, len(index)), round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        doc = dict(header, names=list(index), fields=["name", "start_s", "end_s", "parent"],
                   spans=spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


@contextlib.contextmanager
def instrument(tracer):
    """Route every reference to each target through a tracing wrapper.

    A function imported by name into another ndlu module (``from .core import
    triangular_solve``) is a separate reference, so every module attribute
    bound to the same object is replaced. All are restored on exit.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "ndlu" or name.startswith("ndlu.")) and m is not None]
    replaced = []
    try:
        for mod_name, attr, observe in TARGETS:
            owner = sys.modules["ndlu." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                replaced.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, tracer.wrap(f"{mod_name}.{attr}", cls.__dict__[meth], observe))
                continue
            fn = getattr(owner, attr)
            wrapper = tracer.wrap(f"{mod_name}.{attr}", fn, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        replaced.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for obj, key, original in reversed(replaced):
            setattr(obj, key, original)


def layer_metrics(tracer):
    """Per-layer times and counts of one traced pipeline pass.

    Returns the traced part of LAYER_MAP; counts that come from the
    pipeline's outputs rather than from spans are added by the caller.
    """
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child = [0.0] * len(durations)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child[parent] += durations[i]
    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for name, d, inner in zip(tracer.names, durations, child):
        total[name] += d
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += d - inner

    def timed(*names):
        # no target calls another target of the same group, so sums add up
        return sum(total[n] for n in names), sum(calls[n] for n in names)

    c = tracer.counters
    out = {}
    out["meshing.mesh_s"] = timed("meshing.make_structured_mesh", "meshing.make_polygon_mesh",
                                  "meshing.apply_neumann_region")[0]
    out["assembly.fem_s"] = timed("assembly.assemble_fem")[0]
    out["dissection.build_s"] = timed("dissection.build_dissection")[0]
    out["dissection.find_separator_s"], out["dissection.find_separator_calls"] = \
        timed("dissection.find_separator")
    out["dissection.split_subset_s"] = timed("dissection.split_subset")[0]
    out["factor.interiors_s"] = timed("factor.eliminate_interiors")[0]
    out["factor.eliminate_s"] = timed("factor.eliminate_segments")[0]
    out["factor.merge_s"] = timed("factor.merge_segments")[0]
    out["factor.schur_update_s"], out["factor.schur_block_updates"] = \
        timed("factor.SchurState.add_to_block")
    out["factor.schur_entries_peak"] = c["factor.schur_entries_peak"]
    out["factor.sparsify_s"], tries = timed("factor.sparsify_segment")
    out["factor.sparsify_calls"] = tries
    out["factor.sparsify_useful_frac"] = c["factor.sparsify_useful"] / tries if tries else 0.0
    segs = c["factor.segment_size_sum"]
    out["factor.skeleton_frac"] = c["factor.skeleton_size_sum"] / segs if segs else 0.0
    out["lowrank.id_s"], out["lowrank.id_calls"] = timed("lowrank.sampled_id",
                                                        "lowrank.joint_unsymmetric_id")
    out["lowrank.plan_s"] = timed("lowrank.build_hybrid_plan")[0]
    out["lowrank.cols_in"] = c["lowrank.cols_in"]
    out["lowrank.rank_out"] = c["lowrank.rank_out"]
    out["core.lu_s"], out["core.lu_calls"] = timed("core.lu_compact")
    out["core.trisolve_s"], out["core.trisolve_calls"] = timed("core.triangular_solve")
    out["solver.left_s"], left = timed("solver.apply_factor_left")
    out["solver.middle_s"], middle = timed("solver.apply_factor_middle")
    out["solver.right_s"], right = timed("solver.apply_factor_right")
    out["solver.factor_applications"] = left + middle + right
    out["solver.residual_s"] = timed("solver.residual_with_flag")[0]
    for module in ("meshing", "assembly", "dissection", "factor", "lowrank", "core", "solver"):
        out[f"{module}.self_s"] = self_s[module]
    return out
