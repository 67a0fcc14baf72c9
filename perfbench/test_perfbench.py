"""Self-tests of the benchmark.

Run from the repository root (about two minutes)::

    python3 -m pytest perfbench -q

Each test drives ``perfbench/run.py`` as a subprocess, exactly as the
benchmark is run, with a one-second measuring window.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402

WORKLOADS = [w["name"] for w in spec.WORKLOADS]


def _run(workload, trace=0, seed=3, extra=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    info = json.loads(lines[-2]) if len(lines) > 1 else None
    return proc, info, result


@pytest.fixture(scope="module")
def runs():
    """Untraced and traced one-second runs of every workload."""
    return {(w, t): _run(w, trace=t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(runs, workload):
    proc, _info, result = runs[(workload, 0)]
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_match_benchmark_json(runs, workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        _proc, _info, result = runs[(workload, trace)]
        declared = {m["name"]: m["unit"] for m in bench[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_returns_identical_results(runs, workload):
    _p0, untraced, _r0 = runs[(workload, 0)]
    proc, traced, _r1 = runs[(workload, 1)]
    assert proc.returncode == 0, proc.stderr
    assert traced["results_sha256"] == untraced["results_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_fails_the_run(workload):
    proc, _info, result = _run(workload, extra=["--corrupt-expected"])
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untimed_metrics_are_printed_as_measured(runs, workload):
    _proc, info, result = runs[(workload, 0)]
    for name in ("ok_frac", "peak_rss_mb"):
        assert result["metrics"][name]["value"] == info["measured"][name]


def test_ops_scale_by_the_host_reference_near_them():
    from common import OpLog
    from hostref import REF_NOMINAL_MS, HostRef

    host = HostRef()
    host.samples["window"] = [0.002] * 5 + [0.004] * 5
    host.stamps["window"] = [0.1 * i for i in range(5)] + [
        10 + 0.1 * i for i in range(5)]
    assert host.scale(0.2) == pytest.approx(REF_NOMINAL_MS / 2)
    assert host.scale(10.2) == pytest.approx(REF_NOMINAL_MS / 4)
    assert host.scale(5.0) == pytest.approx(REF_NOMINAL_MS / 2)
    ops = OpLog(["a"])
    ops.record("a", 0.01, True, 1.0, end=0.3)
    ops.record("a", 0.01, True, 1.0, end=10.3)
    assert ops.scaled(host.scale).latency["a"] == pytest.approx(
        [0.01 * REF_NOMINAL_MS / 2, 0.01 * REF_NOMINAL_MS / 4])


def test_host_reference_is_frozen():
    from hostref import HostRef

    first, second = HostRef(), HostRef()
    assert first.value == second.value
    second.pace(0.05 / first.share)
    assert len(second.samples["window"]) >= 1
    assert second.scale(second.stamps["window"][0]) > 0


def test_generated_files_are_current():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()
    with open(os.path.join(HERE, "metrics.json")) as fh:
        assert json.load(fh) == spec.metrics_json()


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _info, result = _run("eval", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_eval_trace_matches_untraced_op_time(runs, tmp_path):
    """Traced full ops take about as long as untraced ones, and the layer
    spans cover all but ``trace.overhead_frac`` of their wall time."""
    from common import Spans, trimmed_mean

    table = tmp_path / "walltime.md"
    proc, _info, result = _run("eval", trace=1, extra=["--table", str(table)])
    assert proc.returncode == 0, proc.stderr
    spans = Spans()
    with open(os.path.join(ROOT, ".perfbench", "spans-eval-3.jsonl")) as fh:
        for line in fh:
            rec = json.loads(line)
            spans.names.append(rec["name"])
            spans.start.append(rec["start"])
            spans.end.append(rec["end"])
            spans.parent.append(rec["parent"])
    traced_ms = trimmed_mean(spans.durations("op.full")) * 1e3
    untraced_ms = runs[("eval", 0)][1]["measured"]["mean_ms.a"]
    assert 0.67 < traced_ms / untraced_ms < 1.5
    assert result["metrics"]["trace.overhead_frac"]["value"] < 0.05
    assert "| `partials.update` |" in table.read_text()
    assert "plan.verify" not in table.read_text()
