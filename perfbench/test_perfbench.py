"""Tests of the benchmark itself, at tiny trial counts.

Run from the repository root: python3 -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
import firewatch  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
_cache = {}


def tiny(workload: str):
    """The workload with its trial counts cut down to test size."""
    return dataclasses.replace(WORKLOADS[workload], chunk=20, trace_trials=60)


@contextlib.contextmanager
def tiny_workloads():
    with pytest.MonkeyPatch.context() as mp:
        for name in WORKLOADS:
            mp.setitem(WORKLOADS, name, tiny(name))
        yield


def bench(workload: str, trace: int):
    """Run the benchmark's main on a tiny workload; return (report, result, stdout)."""
    key = (workload, trace)
    if key not in _cache:
        out = io.StringIO()
        with tiny_workloads(), contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                             "--trace", str(trace)])
        assert code == 0
        lines = out.getvalue().strip().splitlines()
        _cache[key] = json.loads(lines[-2])["report"], json.loads(lines[-1]), out.getvalue()
    return _cache[key]


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    report, result, stdout = bench(workload, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["absent"] == []
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line
                   for line in stdout.splitlines())
    facts = report["machine"]
    assert facts["seed"] == 3 and facts["nproc"] >= 1 and facts["firewatch"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_both_worker_counts_run_and_agree(workload):
    report, _, _ = bench(workload, 0)
    same = [c for c in report["checks"] if c["name"] == "outcome bytes, workers=1 vs 2"]
    assert len(same) >= run.MIN_ROUNDS and all(c["ok"] for c in same)
    _, result, _ = bench(workload, 1)
    metrics = result["metrics"]
    assert metrics["montecarlo.w1_trials_per_s"]["value"] > 0
    assert metrics["montecarlo.w2_trials_per_s"]["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_gate_passes_the_engine_and_trips_on_a_scaled_sample(workload):
    w = WORKLOADS[workload]
    outcomes = firewatch.run_trials(w.config(300, 5), workers=1)
    sample = run.column(outcomes, w.statistic)
    assert all(c.ok for c in run.gate(w, sample))
    assert not all(c.ok for c in run.gate(w, 1.5 * sample))


def test_timings_are_scaled_by_the_reference_around_them(monkeypatch):
    times = iter([0.5 * run.REFERENCE_S, 1.5 * run.REFERENCE_S, 2.5 * run.REFERENCE_S])
    monkeypatch.setattr(run, "reference_seconds", lambda: next(times))
    host = run.HostSpeed()
    assert host.scale(2.0) == pytest.approx(2.0)  # host at reference speed
    assert host.scale(2.0) == pytest.approx(1.0)  # host twice as slow


def test_path_counts_repeat_at_the_same_seed(tmp_path):
    def counts():
        r = run.Run()
        run.traced(r, tiny("ellipse3-sparse"), 4, tmp_path)
        return {k: v for k, v in r.values.items() if k.startswith("geometry.area_calls.")}

    first = counts()
    assert first == counts()
    assert first["geometry.area_calls.sampled"] > 0


def test_a_removed_name_is_reported_absent(tmp_path, monkeypatch):
    for cls in (firewatch.CircularModel, firewatch.EllipticalModel):
        monkeypatch.delattr(cls, "covers")
    r = run.Run()
    run.traced(r, tiny("random-dense"), 4, tmp_path)
    assert "geometry.area_calls.sampled" in r.absent
    assert "geometry.covers_points_per_sampled_call" in r.absent
    assert "propagation.reach_times_us" in r.samples
    assert all(c.ok for c in r.checks)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*DECLARED["command"], "--workload", "grid-csv", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
