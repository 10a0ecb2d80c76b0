"""scripts/ab_time.py: its workload table is the benchmark's, it solves one
column at a time as perfbench does and reads the peak RSS as perfbench
does, its report states the wins, the change of the medians and OLD's
spread, and its command line rejects what it cannot run."""

import importlib.util
import resource
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_ab_time():
    spec = importlib.util.spec_from_file_location(
        "ab_time", ROOT / "scripts" / "ab_time.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


AB = _load_ab_time()


def test_the_workloads_are_those_of_perfbench():
    module = sys.modules[type(AB.WORKLOADS["poly-multirhs"]).__module__]
    assert Path(module.__file__).resolve() == ROOT / "perfbench" / "workloads.py"
    assert module.WORKLOADS is AB.WORKLOADS


def test_report_states_wins_median_change_and_old_spread():
    # NEW wins pairs 1, 3 and 5; pair 2 is a tie and counts for neither
    old = [dict.fromkeys(AB.MEASURES, v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    new = [dict.fromkeys(AB.MEASURES, v) for v in (0.5, 2.0, 2.5, 4.5, 4.0)]
    lines = AB.report(old, new).splitlines()
    assert [line.split()[0] for line in lines] == list(AB.MEASURES)
    assert lines[1] == (
        "factor_cpu   OLD 3.0000 [1.5000, 4.5000]  NEW 2.5000 [1.2500, "
        "4.2500]  NEW won 3/5  -16.7%  (OLD IQR 3.0000)")


def test_time_once_times_one_solve_per_column_as_perfbench_does(monkeypatch):
    # the workload's num_rhs columns, each solved alone; the solve measures
    # are the median of those solves
    from ndlu import solver
    monkeypatch.setattr(sys, "path", list(sys.path))
    w = AB.WORKLOADS["poly-multirhs"]
    solve = solver.solve
    columns = []

    def counted(fac, a, b, **kwargs):
        columns.append(b.shape)
        return solve(fac, a, b, **kwargs)

    monkeypatch.setattr(solver, "solve", counted)
    times = AB.time_once(ROOT, "poly-multirhs")
    assert set(times) == set(AB.MEASURES)
    assert all(t > 0 for t in times.values())
    # the process's peak RSS in MB, as perfbench reads it
    assert times["peak_rss_mb"] <= \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # one warm-up solve on the small problem, then one per column
    assert len(columns) == 1 + w.num_rhs
    assert set(columns[1:]) == {(columns[-1][0],)}
    assert times["solve_wall"] < times["factor_wall"]


@pytest.mark.parametrize("bad", ["pairs", "checkout"])
def test_main_rejects_zero_pairs_and_a_checkout_without_the_package(
        bad, tmp_path, capsys):
    old = tmp_path if bad == "checkout" else ROOT
    pairs = "0" if bad == "pairs" else "1"
    with pytest.raises(SystemExit) as info:
        AB.main([str(old), str(ROOT), "--workload", "poly-multirhs",
                 "--pairs", pairs])
    assert info.value.code == 2
    message = ("--pairs must be at least 1" if bad == "pairs"
               else f"no ndlu package under {tmp_path}/src")
    assert message in capsys.readouterr().err
