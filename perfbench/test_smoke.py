"""Smoke test of the benchmark: every workload's code path at a small size.

Run from the repository root with ``python -m pytest perfbench``.
"""

import gzip
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_package()

import measure  # noqa: E402  (needs the package path set above)
import spans  # noqa: E402
from ndlu import assembly, dissection, factor, solver  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL_N = 1500
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_file_matches_the_code():
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why}
                                      for w in WORKLOADS.values() if w.gated]
    assert {name: v[0] for name, v in spans.LAYER_MAP.items()} == _declared("per_layer")
    assert {m["name"]: m["better"] for m in BENCHMARK["per_layer"]} == \
        {name: v[1] for name, v in spans.LAYER_MAP.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    metrics, attempted, failed, problems, report = measure.untraced_run(
        WORKLOADS[name], seed=1, seconds=0, target_n=SMALL_N)
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("end_to_end")
    assert all(math.isfinite(v) and v > 0 for v, _ in metrics.values())
    assert attempted == WORKLOADS[name].num_rhs
    assert failed == 0 and problems == []
    assert report["reference"]["splu_lu_nnz"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_and_restores_the_package(name, tmp_path):
    originals = (factor.factorize, factor.SchurState.add_to_block, solver.triangular_solve)
    path = tmp_path / "spans.json.gz"
    metrics, attempted, failed, problems, _ = measure.traced_run(
        WORKLOADS[name], seed=1, seconds=0, target_n=SMALL_N, spans_path=path)
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("per_layer")
    assert all(math.isfinite(v) for v, _ in metrics.values())
    assert metrics["dissection.find_separator_calls"][0] > 0
    assert metrics["factor.schur_block_updates"][0] > 0
    assert failed == 0 and problems == []
    assert attempted == 2 * WORKLOADS[name].num_rhs
    assert originals == (factor.factorize, factor.SchurState.add_to_block,
                         solver.triangular_solve)
    with gzip.open(path, "rt") as fh:
        doc = json.load(fh)
    assert doc["fields"] == ["name", "start_s", "end_s", "parent"]
    roots = {doc["names"][s[0]] for s in doc["spans"] if s[3] < 0}
    assert roots == {"assembly.build_problem", "dissection.build_dissection",
                     "factor.factorize", "solver.solve"}
    assert all(s[1] <= s[2] for s in doc["spans"])


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("core.lu_compact", lambda: None)
    outer = tracer.wrap("factor.factorize", lambda: inner())
    outer()
    out = spans.layer_metrics(tracer)
    assert out["core.lu_s"] == 2.0 and out["core.lu_calls"] == 1
    assert out["factor.self_s"] == 8.0 and out["core.self_s"] == 2.0


def test_check_solve_rejects_wrong_solutions():
    w = WORKLOADS["poly-multirhs"]
    problem = assembly.build_problem(w.descriptor, SMALL_N)
    tree = dissection.build_dissection(problem.matrix, problem.coords)
    fac = factor.factorize(problem.matrix, tree, w.eps)
    b = problem.rhs
    x, report = solver.solve(fac, problem.matrix, b)
    csr = problem.matrix.csr
    assert measure.check_solve(csr, b, x, report, w.accuracy_target)[1]
    assert not measure.check_solve(csr, b, 1.1 * x, report, w.accuracy_target)[1]
    bad = x.copy()
    bad[0] = np.nan
    assert not measure.check_solve(csr, b, bad, report, w.accuracy_target)[1]
    report.residual = 1e-3
    assert not measure.check_solve(csr, b, x, report, w.accuracy_target)[1]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aniso-unsym", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
