"""Checks of the benchmark itself:  python3 -m pytest perfbench -q

The span test runs one traced pass of every workload (about 15 s) and fails
when a boundary that the layer -> workload predictions say a workload
exercises records no span, i.e. when a wrapper silently misses its calls.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_predicted_boundaries_record_spans(name):
    workload = workloads.Workload(name, 1)
    tracer = tracing.Tracer()
    tracer.install()
    stats = run.new_stats()
    try:
        tracer.active = True
        for op in workload.ops(0):
            run.run_op(op, stats)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracing.missing_spans(tracer.spans, name) == []
    assert stats["failed"] == 0, stats["errors"]


def test_rebinding_reaches_copied_imports():
    from spikesep import specialfn
    from spikesep.kernels import hermite

    original = specialfn.hermite_weighted_signlog
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert specialfn.hermite_weighted_signlog is not original
        assert hermite.hermite_weighted_signlog is specialfn.hermite_weighted_signlog
    finally:
        tracer.uninstall()
    assert hermite.hermite_weighted_signlog is original


def test_self_time_subtracts_children():
    spans = [
        ["kernels.pointwise", 0.0, 10.0, -1, 1, 0],
        ["specialfn.recurrence", 1.0, 4.0, 0, 30, 0],
        ["logspace.slog_sum", 5.0, 6.0, 0, 8, 0],
    ]
    metrics = tracing.layer_metrics(spans, [(0, 3, 12.0)], ops=1)
    assert metrics["kernels.pointwise.self_s"][0] == pytest.approx(6.0)
    assert metrics["kernels.pointwise.cells_per_value"][0] == pytest.approx(30.0)
    assert metrics["trace.coverage"][0] == pytest.approx(10.0 / 12.0)


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == pytest.approx(75.0) and n == 40


def _run(cwd, *extra, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "pointwise", "--seed", "1",
           "--seconds", "1", "--trace", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, env=env)


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


def test_refuses_more_threads_than_cores():
    env = dict(os.environ, SPIKESEP_WORKERS=str(len(os.sched_getaffinity(0)) + 1))
    out = _run(ROOT, env=env)
    assert out.returncode != 0 and "nproc" in out.stderr


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    layer_names = set(tracing.layer_metrics([], [], ops=1)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
