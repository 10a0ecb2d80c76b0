"""Paired timing of build_dissection, factorize and the solves in two
checkouts.

Run from anywhere, with two checkouts of this repository:

    python scripts/ab_time.py OLD NEW --workload poly-multirhs --pairs 10

The workloads, each a problem descriptor, a target size and an eps, are
those of perfbench/workloads.py next to this script, read and never
written, so the tool times the problems the benchmark gates.

Each pair runs OLD and NEW once each, in fresh processes, OLD first in
even pairs and NEW first in odd ones, so that a drift in the host's load
hits both sides alike. A process imports ndlu from its checkout's src/, builds
the workload's problem, runs one untimed pass on a small problem of the
same family so that lazy imports and first calls are not timed, and then
times one build_dissection and one factorize call, each in CPU time
(time.process_time) and in wall time. It then solves the workload's
num_rhs right-hand sides (perfbench's right_hand_sides of seed 1) one
column at a time, as perfbench does, and reports the median solve in both
times, the measure of the benchmark's solve_s, and its peak resident set
size (ru_maxrss, in MB), measured as the benchmark's peak_rss_mb is. BLAS
runs one thread, as in the benchmark.

For each measure it prints each side's median and quartiles over the
pairs, the pairs NEW won (ties count for neither side) and the change of
the medians. A gain holds by the benchmark's rule when NEW wins at least
nine pairs in ten and the medians differ by more than OLD's interquartile
range. Besides that table, the script reads and writes nothing outside
the two checkouts' sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, right_hand_sides  # noqa: E402

WARMUP_N = 1024
SEED = 1
MEASURES = ("dissect_cpu", "factor_cpu", "total_cpu", "solve_cpu",
            "dissect_wall", "factor_wall", "total_wall", "solve_wall",
            "peak_rss_mb")


def time_once(checkout, workload):
    """One timed build_dissection and factorize of the workload with the
    ndlu package of checkout, then its one-column solves; returns the
    measures, times in seconds and the process's peak RSS in MB."""
    src = Path(checkout).resolve() / "src"
    sys.path.insert(0, str(src))
    import ndlu
    from ndlu import assembly, dissection, factor, solver

    if Path(ndlu.__file__).resolve().parent != src / "ndlu":
        sys.exit(f"ab_time: imported ndlu from {ndlu.__file__}, not {src}")

    w = WORKLOADS[workload]
    warm = assembly.build_problem(w.descriptor, WARMUP_N)
    solver.solve(factor.factorize(warm.matrix, dissection.build_dissection(
        warm.matrix, warm.coords), w.eps), warm.matrix, warm.rhs)
    problem = assembly.build_problem(w.descriptor, w.target_n)
    c0, w0 = time.process_time(), time.perf_counter()
    tree = dissection.build_dissection(problem.matrix, problem.coords)
    c1, w1 = time.process_time(), time.perf_counter()
    fac = factor.factorize(problem.matrix, tree, w.eps)
    c2, w2 = time.process_time(), time.perf_counter()
    solve_cpu, solve_wall = [], []
    for b in right_hand_sides(problem.rhs, w.num_rhs, SEED).T:
        c3, w3 = time.process_time(), time.perf_counter()
        solver.solve(fac, problem.matrix, b)
        solve_cpu.append(time.process_time() - c3)
        solve_wall.append(time.perf_counter() - w3)
    return {"dissect_cpu": c1 - c0, "factor_cpu": c2 - c1,
            "total_cpu": c2 - c0, "solve_cpu": statistics.median(solve_cpu),
            "dissect_wall": w1 - w0, "factor_wall": w2 - w1,
            "total_wall": w2 - w0, "solve_wall": statistics.median(solve_wall),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_child(checkout, workload):
    """time_once in a fresh interpreter with BLAS on one thread."""
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_ENV, "1"))
    out = subprocess.run(
        [sys.executable, __file__, "--child", str(checkout),
         "--workload", workload],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(old, new):
    """One line per measure: each side's median [quartiles], the pairs NEW
    won and the change of the medians."""
    lines = []
    for m in MEASURES:
        a = [run[m] for run in old]
        b = [run[m] for run in new]
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        won = sum(y < x for x, y in zip(a, b))
        lines.append(
            f"{m:<12} OLD {a2:.4f} [{a1:.4f}, {a3:.4f}]  "
            f"NEW {b2:.4f} [{b1:.4f}, {b3:.4f}]  NEW won {won}/{len(a)}  "
            f"{100.0 * (b2 - a2) / a2:+.1f}%  (OLD IQR {a3 - a1:.4f})")
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", metavar="CHECKOUT")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(time_once(args.child, args.workload)))
        return
    if len(args.checkouts) != 2:
        parser.error("give two checkouts, OLD and NEW")
    for checkout in args.checkouts:
        if not (Path(checkout) / "src" / "ndlu" / "__init__.py").is_file():
            parser.error(f"no ndlu package under {checkout}/src")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    old_dir, new_dir = args.checkouts
    old, new = [], []
    for pair in range(args.pairs):
        if pair % 2 == 0:
            old.append(run_child(old_dir, args.workload))
            new.append(run_child(new_dir, args.workload))
        else:
            new.append(run_child(new_dir, args.workload))
            old.append(run_child(old_dir, args.workload))
        print(f"pair {pair + 1}: total_wall OLD {old[-1]['total_wall']:.4f} "
              f"NEW {new[-1]['total_wall']:.4f}", flush=True)
    print(f"{args.workload}, {args.pairs} pairs, seconds (peak_rss_mb in MB)")
    print(report(old, new))


if __name__ == "__main__":
    main(sys.argv[1:])
