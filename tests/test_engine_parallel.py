"""Tests for the work-stealing sweep scheduler (`repro.engine.parallel`)."""

from __future__ import annotations

import os

import pytest

from repro.engine import parallel
from repro.engine.parallel import SweepPoint, available_cpus, run_cells, run_many
from repro.engine.simulation import run_protocol
from repro.errors import ConfigurationError, SweepError
from repro.experiments.store import ExperimentStore
from repro.protocols.slow import SlowLeaderElection


def _factory(n: int) -> SlowLeaderElection:
    return SlowLeaderElection()


def _failing_factory(n: int) -> SlowLeaderElection:
    # Module-level so it pickles into pool workers; fails for one size only.
    if n == 24:
        raise ValueError("broken cell")
    return SlowLeaderElection()


def test_run_many_shape_and_order():
    points = run_many(
        _factory, [16, 32], repetitions=3, base_seed=1, max_parallel_time=1000
    )
    assert len(points) == 6
    assert [point.n for point in points] == [16, 16, 16, 32, 32, 32]
    assert all(isinstance(point, SweepPoint) for point in points)


def test_run_many_results_converge():
    points = run_many(
        _factory, [24], repetitions=2, base_seed=5, max_parallel_time=2000
    )
    assert all(point.result.converged for point in points)
    assert all(point.result.leader_count == 1 for point in points)


def test_run_many_seeds_are_distinct_and_deterministic():
    first = run_many(_factory, [16], repetitions=4, base_seed=9, max_parallel_time=500)
    second = run_many(_factory, [16], repetitions=4, base_seed=9, max_parallel_time=500)
    assert [p.seed for p in first] == [p.seed for p in second]
    assert len({p.seed for p in first}) == 4
    assert [p.result.parallel_time for p in first] == [
        p.result.parallel_time for p in second
    ]


def test_run_many_rejects_empty_sizes():
    with pytest.raises(ConfigurationError):
        run_many(_factory, [], repetitions=1)


def test_run_many_rejects_zero_repetitions():
    with pytest.raises(ConfigurationError):
        run_many(_factory, [16], repetitions=0)


def test_run_many_with_convergence_factory():
    from repro.engine.convergence import NeverConverge

    points = run_many(
        _factory,
        [16],
        repetitions=1,
        base_seed=2,
        max_parallel_time=5,
        convergence_factory=lambda n: NeverConverge(),
    )
    assert not points[0].result.converged
    assert points[0].result.parallel_time == pytest.approx(5.0)


# ----------------------------------------------------------------------
# Scheduler: affinity clamp, pool execution, failure and resume semantics
# ----------------------------------------------------------------------
def test_available_cpus_respects_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert available_cpus() == 3

    def _no_affinity(pid):
        raise AttributeError("platform without sched_getaffinity")

    monkeypatch.setattr(os, "sched_getaffinity", _no_affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert available_cpus() == 7


def test_pool_results_match_serial(monkeypatch):
    """A 2-worker multi-process sweep is bit-identical to the serial sweep."""
    serial = run_many(
        _factory, [16, 32], repetitions=2, base_seed=3, max_parallel_time=1000
    )
    # Force the pool path even on a single-CPU runner.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    pooled = run_many(
        _factory,
        [16, 32],
        repetitions=2,
        base_seed=3,
        max_parallel_time=1000,
        workers=2,
    )
    assert [(p.n, p.seed) for p in pooled] == [(p.n, p.seed) for p in serial]
    assert [p.result.interactions for p in pooled] == [
        p.result.interactions for p in serial
    ]
    assert [p.result.final_counts for p in pooled] == [
        p.result.final_counts for p in serial
    ]


def test_failing_cell_does_not_abandon_sweep(tmp_path):
    """One broken cell fails the sweep *after* recording every other cell."""
    store = ExperimentStore(tmp_path)
    with pytest.raises(SweepError) as excinfo:
        run_many(
            _failing_factory,
            [16, 24],
            repetitions=2,
            base_seed=11,
            max_parallel_time=1000,
            store=store,
        )
    error = excinfo.value
    assert len(error.failures) == 2
    assert all(n == 24 for n, _, _ in error.failures)
    assert all(isinstance(cause, ValueError) for _, _, cause in error.failures)
    # The two healthy cells completed, were returned, and hit the store.
    assert [point.n for point in error.points] == [16, 16]
    assert store.stored == 2

    # A rerun against the same store reloads the healthy cells instead of
    # re-running them; only the broken cells are attempted again.
    with pytest.raises(SweepError) as excinfo:
        run_many(
            _failing_factory,
            [16, 24],
            repetitions=2,
            base_seed=11,
            max_parallel_time=1000,
            store=store,
        )
    assert [point.extra.get("cached") for point in excinfo.value.points] == [
        True,
        True,
    ]
    assert store.stored == 2  # nothing new was written


def test_failing_cell_in_pool_does_not_abandon_sweep(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    store = ExperimentStore(tmp_path)
    with pytest.raises(SweepError) as excinfo:
        run_many(
            _failing_factory,
            [16, 24],
            repetitions=2,
            base_seed=11,
            max_parallel_time=1000,
            store=store,
            workers=2,
        )
    assert len(excinfo.value.failures) == 2
    assert store.stored == 2


def test_interrupted_sweep_resumes_only_missing_cells(tmp_path):
    """A killed sweep reruns only the cells the store does not hold yet.

    Seeds are spawned prefix-stably, so the cells of a smaller sweep are a
    prefix of the bigger sweep's cells — running the small sweep first
    stands in for a sweep killed partway through.
    """
    store = ExperimentStore(tmp_path)
    run_many(
        _factory, [16], repetitions=2, base_seed=7, max_parallel_time=1000,
        store=store,
    )
    assert store.stored == 2
    resumed = run_many(
        _factory, [16, 32], repetitions=2, base_seed=7, max_parallel_time=1000,
        store=store,
    )
    assert [point.extra.get("cached", False) for point in resumed] == [
        True, True, False, False,
    ]
    assert store.stored == 4  # only the two missing cells executed
    assert store.loaded == 2


def test_mega_cell_grouping_is_bit_identical(tmp_path):
    """Replica-grouped cells reproduce the scalar per-cell results exactly."""
    points = run_cells(
        _factory,
        64,
        [101, 102, 103, 104],
        max_parallel_time=1000,
        engine="countbatch",
    )
    assert all(point.extra.get("replicated") for point in points)
    for point in points:
        reference = run_protocol(
            _factory(64),
            64,
            seed=point.seed,
            max_parallel_time=1000,
            engine_cls="countbatch",
        )
        assert point.result.converged == reference.converged
        assert point.result.interactions == reference.interactions
        assert point.result.parallel_time == reference.parallel_time
        assert point.result.states_used == reference.states_used
        assert point.result.final_counts == reference.final_counts
        assert point.result.final_outputs == reference.final_outputs

    # Grouping is invisible in the store: a mega-cell sweep and a scalar
    # sweep share cell keys, so either one resumes the other.
    store = ExperimentStore(tmp_path)
    run_cells(
        _factory, 64, [101, 102], max_parallel_time=1000,
        engine="countbatch", store=store,
    )
    resumed = run_cells(
        _factory, 64, [101, 102, 103], max_parallel_time=1000,
        engine="countbatch", store=store,
    )
    assert [point.extra.get("cached", False) for point in resumed] == [
        True, True, False,
    ]


def test_auto_cadence_cells_group_into_bit_identical_mega_cells():
    # Every mega-cell row runs the scalar check loop, adaptive cadence
    # included, so "auto" sweeps group and each row equals its scalar run.
    seeds = [5, 6, 7]
    points = run_cells(
        _factory,
        64,
        seeds,
        max_parallel_time=1000,
        engine="countbatch",
        check_every="auto",
    )
    assert all(point.extra.get("replicated") for point in points)
    for point, seed in zip(points, seeds):
        scalar = run_protocol(
            SlowLeaderElection(),
            64,
            seed=seed,
            max_parallel_time=1000,
            engine_cls="countbatch",
            check_every="auto",
        )
        assert point.result.converged == scalar.converged
        assert point.result.interactions == scalar.interactions
        assert point.result.final_counts == scalar.final_counts
        assert point.result.states_used == scalar.states_used


def test_ungroupable_run_kwargs_fall_back_to_per_cell():
    # Checkpointing is per-run state a mega-cell does not carry; such
    # sweeps take the per-cell path.
    points = run_cells(
        _factory,
        64,
        [5, 6],
        max_parallel_time=1000,
        engine="countbatch",
        raise_on_budget=True,
    )
    assert all("replicated" not in point.extra for point in points)
    assert all(point.result.converged for point in points)
