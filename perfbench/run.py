"""Benchmark of the ndlu sparse direct solver.

Run from the repository root:

    python3 perfbench/run.py --workload aniso-unsym --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Each run repeats the public pipeline (build_problem, build_dissection,
factorize, one solve per right-hand side) for about --seconds seconds on the
package in ./src, checks every solution and prints the metrics by name and
unit. With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of traced passes, each paired with
an untraced pass. `--workload all` runs every workload in its own process.
The full record of a run, and with --trace 1 its spans, are written under
perfbench/out/.

BLAS runs one thread. On a machine of few cores shared with other work, a
second OpenBLAS thread busy-waits and turns the host's load into timing
noise, and ndlu's dense blocks are too small to gain from it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# read when the BLAS library loads, so set before numpy is imported
os.environ.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import ndlu from ./src of this checkout, and nowhere else."""
    src = ROOT / "src"
    if not (src / "ndlu" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ndlu package under {src}")
    sys.path.insert(0, str(src))
    import ndlu

    if Path(ndlu.__file__).resolve().parent != (src / "ndlu").resolve():
        sys.exit(f"perfbench: imported ndlu from {ndlu.__file__}, not from {src}")
    return ndlu


def _blas_threads():
    """Thread count of each loaded OpenBLAS, as the library reports it."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def _git_commit():
    """HEAD's commit when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(ndlu):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_ENV if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ndlu": ndlu.__version__,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def run_all(args):
    """Each workload in a fresh process; the exit code is the worst one."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    ndlu = import_package()
    import measure  # imports ndlu, so only after import_package()

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, attempted, failed, problems, report = measure.traced_run(
            workload, args.seed, args.seconds, spans_path=OUT / f"spans-{tag}.json.gz")
    else:
        metrics, attempted, failed, problems, report = measure.untraced_run(
            workload, args.seed, args.seconds)

    record = {
        "workload": dict(asdict(workload), accuracy_target=workload.accuracy_target),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(ndlu),
        "problems": problems,
        "report": report,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    for name, value in report.items():
        print(f"{name:34s} {json.dumps(value)}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"environment": record["environment"], "workload": record["workload"]}))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
