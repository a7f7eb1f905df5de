"""Tests for simulation recorders.

Recorders observe engines only through the shared ``BaseEngine`` inspection
API, so beyond the per-agent reference engine the suite drives every
recorder against the count-space engine (``CountBatchEngine``) too — its
count vector and lazily-aggregated outputs must feed recorders exactly
like a per-agent array does.
"""

from __future__ import annotations

import pytest

from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.recorder import MetricRecorder, OutputCountRecorder, SnapshotRecorder
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.slow import SlowLeaderElection

COUNT_ENGINES = [CountBatchEngine]


def _engine(n: int = 32, seed: int = 0) -> SequentialEngine:
    return SequentialEngine(SlowLeaderElection(), n, rng=seed)


def test_snapshot_recorder_collects_counts():
    engine = _engine()
    recorder = SnapshotRecorder()
    for _ in range(5):
        engine.run(100)
        recorder.record(engine)
    assert len(recorder) == 5
    assert all(sum(snapshot.values()) == 32 for snapshot in recorder.snapshots)
    assert recorder.times == sorted(recorder.times)


def test_snapshot_recorder_thins_when_full():
    engine = _engine()
    recorder = SnapshotRecorder(max_snapshots=4)
    for _ in range(10):
        recorder.record(engine)
    assert len(recorder) <= 6  # thinned at least once


def test_snapshot_recorder_reset():
    engine = _engine()
    recorder = SnapshotRecorder()
    recorder.record(engine)
    recorder.reset()
    assert len(recorder) == 0


def test_metric_recorder_series_and_last():
    engine = _engine()
    recorder = MetricRecorder(metric=lambda eng: eng.count_of("L"), name="leaders")
    assert recorder.last() is None
    for _ in range(4):
        engine.run(200)
        recorder.record(engine)
    series = recorder.series()
    assert len(series) == 4
    assert recorder.last() == series[-1][1]
    # The slow protocol's leader count is non-increasing.
    values = [value for _, value in series]
    assert values == sorted(values, reverse=True)


def test_metric_recorder_reset():
    engine = _engine()
    recorder = MetricRecorder(metric=lambda eng: 1.0)
    recorder.record(engine)
    recorder.reset()
    assert recorder.series() == []


def test_output_count_recorder():
    engine = _engine()
    recorder = OutputCountRecorder()
    for _ in range(3):
        engine.run(100)
        recorder.record(engine)
    leader_series = recorder.series_for("L")
    follower_series = recorder.series_for("F")
    assert len(leader_series) == len(follower_series) == 3
    for (_, leaders), (_, followers) in zip(leader_series, follower_series):
        assert leaders + followers == 32


def test_output_count_recorder_reset():
    engine = _engine()
    recorder = OutputCountRecorder()
    recorder.record(engine)
    recorder.reset()
    assert recorder.series_for("L") == []


# ----------------------------------------------------------------------
# Count-space engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", COUNT_ENGINES)
def test_snapshot_recorder_on_count_engines(engine_cls):
    engine = engine_cls(SlowLeaderElection(), 32, rng=0)
    recorder = SnapshotRecorder()
    for _ in range(5):
        engine.run(100)
        recorder.record(engine)
    assert len(recorder) == 5
    assert all(sum(snapshot.values()) == 32 for snapshot in recorder.snapshots)
    assert recorder.times == sorted(recorder.times)
    # Snapshots hold decoded protocol states, not internal identifiers.
    assert all(
        set(snapshot) <= {"L", "F"} for snapshot in recorder.snapshots
    )


@pytest.mark.parametrize("engine_cls", COUNT_ENGINES)
def test_metric_recorder_on_count_engines(engine_cls):
    engine = engine_cls(SlowLeaderElection(), 32, rng=1)
    recorder = MetricRecorder(metric=lambda eng: eng.count_of("L"), name="leaders")
    for _ in range(4):
        engine.run(200)
        recorder.record(engine)
    values = [value for _, value in recorder.series()]
    assert len(values) == 4
    # Leader count is non-increasing and never hits zero.
    assert values == sorted(values, reverse=True)
    assert values[-1] >= 1


@pytest.mark.parametrize("engine_cls", COUNT_ENGINES)
def test_output_count_recorder_on_count_engines(engine_cls):
    engine = engine_cls(SlowLeaderElection(), 32, rng=2)
    recorder = OutputCountRecorder()
    for _ in range(3):
        engine.run(100)
        recorder.record(engine)
    leader_series = recorder.series_for("L")
    follower_series = recorder.series_for("F")
    assert len(leader_series) == len(follower_series) == 3
    for (_, leaders), (_, followers) in zip(leader_series, follower_series):
        assert leaders + followers == 32


@pytest.mark.parametrize("engine_cls", COUNT_ENGINES)
def test_recorders_through_simulation_driver_on_count_engines(engine_cls):
    """End-to-end: the Simulation driver invokes recorders at check points
    on count-space engines exactly as on per-agent engines."""
    from repro.engine.convergence import NeverConverge
    from repro.engine.simulation import Simulation

    n = 64
    recorder = OutputCountRecorder()
    simulation = Simulation(
        OneWayEpidemic(),
        n,
        rng=3,
        engine_cls=engine_cls,
        convergence=NeverConverge(),
        recorders=[recorder],
    )
    simulation.run(max_parallel_time=8.0)
    # One record at the start plus one per check point (check_every = n).
    assert len(recorder.times) == 9
    informed = [counts.get("F", 0) for counts in recorder.counts]
    assert all(total == n for total in informed)  # epidemic outputs are all F


def test_metric_recorder_preserves_native_value_types():
    """An integer-valued metric must record ints (not 32 -> 32.0)."""
    engine = _engine()
    recorder = MetricRecorder(metric=lambda eng: eng.count_of("L"), name="leaders")
    recorder.record(engine)
    assert recorder.last() == 32
    assert type(recorder.last()) is int
    ratio = MetricRecorder(metric=lambda eng: eng.count_of("L") / eng.n, name="frac")
    ratio.record(engine)
    assert type(ratio.last()) is float


def test_metric_recorder_unwraps_numpy_scalars():
    import numpy as np

    engine = _engine()
    recorder = MetricRecorder(metric=lambda eng: np.int64(7), name="seven")
    recorder.record(engine)
    assert recorder.last() == 7
    assert type(recorder.last()) is int
