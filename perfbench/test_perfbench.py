"""Tests of the benchmark itself, at toy sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(section: str) -> set:
    return {metric["name"] for metric in SPEC[section]}


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_finishes_and_emits_every_metric(workload, trace):
    process = run_benchmark("--workload", workload, "--trace", trace, "--toy")
    assert process.returncode == 0, process.stderr
    stamp, result = (json.loads(line) for line in process.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = names("per_layer" if trace == "1" else "end_to_end")
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        # End-to-end metrics are never zero (a bound is a share of them).
        assert trace == "1" or metric["value"] > 0
    assert stamp["stamp"]["trajectories"]
    assert set(stamp["stamp"]["environment"]) >= {"available_cpus", "kernel_available", "numpy"}


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    process = run_benchmark("--workload", "leader-agent", "--trace", "0", cwd=tmp_path)
    assert process.returncode != 0
    assert process.stdout == ""


def test_self_time_subtracts_children():
    starts, ends, parents = [0.0, 2.0, 3.0], [10.0, 5.0, 4.0], [-1, 0, 1]
    assert tracing.self_times(starts, ends, parents) == [7.0, 2.0, 1.0]


def test_reentrant_calls_are_not_counted_twice(monkeypatch):
    clock = iter([0.0, 1.0, 2.0, 3.0, 9.0, 10.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    tracer = tracing.Tracer()
    build, resolve = tracer.code("core.protocol_build"), tracer.code("engine.dispatch.resolve")
    outer = tracer.begin(build)
    inner = tracer.begin(build)
    child = tracer.begin(resolve)
    for index in (child, inner, outer):
        tracer.end(index)
    metrics = tracing.layer_metrics(tracer)
    assert list(tracer.parents) == [-1, 0, 1]
    assert metrics["core.protocol_build_s"] == 9.0
    assert metrics["engine.dispatch.resolve_s"] == 1.0


def test_installed_wrappers_nest_reentrant_construction_and_uninstall():
    from repro.core.protocol import GSULeaderElection

    original = vars(GSULeaderElection)["for_population"]
    tracer = tracing.install(tracing.Tracer())
    try:
        GSULeaderElection.for_population(1000)
    finally:
        tracer.uninstall()
    assert vars(GSULeaderElection)["for_population"] is original
    assert [tracer.names[code] for code in tracer.codes] == ["core.protocol_build"] * 2
    assert list(tracer.parents) == [-1, 0]
    outer = tracer.ends[0] - tracer.starts[0]
    assert tracing.layer_metrics(tracer)["core.protocol_build_s"] == pytest.approx(outer)


def test_per_layer_map_covers_every_per_layer_metric():
    baseline = json.loads((HERE / "baseline.json").read_text())
    assert set(baseline["layer_map"]) == names("per_layer")
    for target in baseline["layer_map"].values():
        for metric, workloads in target["moves"].items():
            assert metric in names("end_to_end")
            assert set(workloads) <= set(worker.WORKLOADS)
