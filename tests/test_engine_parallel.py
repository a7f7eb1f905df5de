"""Tests for the work-stealing sweep scheduler (`repro.engine.parallel`)."""

from __future__ import annotations

import os

import pytest

from repro.engine import cpus, parallel
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


def test_available_cpus_honours_max_workers_env(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
    assert available_cpus() == 3
    # A cap above the affinity count never oversubscribes.
    monkeypatch.setenv("REPRO_MAX_WORKERS", "64")
    assert available_cpus() == 8
    # Garbage and non-positive values are ignored, not raised.
    monkeypatch.setenv("REPRO_MAX_WORKERS", "zero")
    assert available_cpus() == 8
    monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
    assert available_cpus() == 8


def test_sweep_worker_clamp_uses_shared_cpu_budget(monkeypatch):
    # parallel.available_cpus is the cpus.py implementation, so the sweep
    # scheduler's worker clamp honours REPRO_MAX_WORKERS without its own
    # plumbing.
    assert parallel.available_cpus is cpus.available_cpus


def _cell_signature(points):
    return [
        (p.n, p.seed, p.result.converged, p.result.interactions,
         p.result.parallel_time, sorted(map(repr, p.result.final_counts.items())))
        for p in points
    ]


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_pooled_backends_bit_identical_to_serial(monkeypatch, backend):
    """Serial and 2-process sweeps both equal one plain run per cell."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    points = run_many(
        _factory,
        [16, 32],
        repetitions=2,
        base_seed=3,
        max_parallel_time=1000,
        workers=0 if backend == "serial" else 2,
    )
    fresh = [
        SweepPoint(p.n, p.seed, run_protocol(
            _factory(p.n), p.n, seed=p.seed, max_parallel_time=1000
        ))
        for p in points
    ]
    assert _cell_signature(points) == _cell_signature(fresh)


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


def _output_recorders():
    from repro.engine.recorder import OutputCountRecorder

    return [OutputCountRecorder()]


def test_recorder_cells_return_their_series_from_the_pool(tmp_path, monkeypatch):
    """Recorders are built per cell in the worker and come back with their
    series; recorder cells neither read nor write the store."""
    kwargs = dict(
        repetitions=2, base_seed=3, max_parallel_time=1000, check_every=8,
        recorder_factory=_output_recorders, store=tmp_path,
    )
    serial = run_many(_factory, [16, 32], **kwargs)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    pooled = run_many(_factory, [16, 32], workers=2, **kwargs)
    for points in (serial, pooled):
        assert all(len(p.recorders) == 1 and p.recorders[0].times for p in points)
        assert len({id(p.recorders[0]) for p in points}) == len(points)
        assert all("cached" not in p.extra for p in points)
    assert [vars(p.recorders[0]) for p in pooled] == [vars(p.recorders[0]) for p in serial]
    assert not list(tmp_path.rglob("*.json"))


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

    Seeds are spawned prefix-stably and dealt out size-major, so the cells
    of a sweep with fewer sizes — or, for a single size, fewer repetitions
    — are a prefix of the bigger sweep's cells; running the small sweep
    first stands in for a sweep killed partway through.
    """
    store = ExperimentStore(tmp_path / "sizes")
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

    store = ExperimentStore(tmp_path / "repetitions")
    run_many(
        _factory, [16], repetitions=1, base_seed=7, max_parallel_time=1000,
        store=store,
    )
    resumed = run_many(
        _factory, [16], repetitions=2, base_seed=7, max_parallel_time=1000,
        store=store,
    )
    assert [point.extra.get("cached", False) for point in resumed] == [True, False]
    assert store.stored == 2
    assert store.loaded == 1


def test_mega_cell_grouping_is_bit_identical(tmp_path):
    """Count-space sweep cells (once grouped into mega-cells) reproduce
    ``run_protocol`` exactly, and a larger sweep resumes a smaller one."""
    points = run_cells(
        _factory,
        64,
        [101, 102, 103, 104],
        max_parallel_time=1000,
        engine="countbatch",
    )
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

    # Cell keys depend on the cell alone, so a grown sweep reuses every
    # stored cell.
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


def test_ungroupable_run_kwargs_fall_back_to_per_cell():
    # raise_on_budget is per-run state; every cell still runs to its verdict.
    points = run_cells(
        _factory,
        64,
        [5, 6],
        max_parallel_time=1000,
        engine="countbatch",
        raise_on_budget=True,
    )
    assert all(point.result.converged for point in points)


def test_sweep_refuses_resume(tmp_path):
    # One checkpoint path cannot stand for several cells: with resume=True
    # every cell would continue the first cell's checkpoint and report its
    # trajectory under its own seed.  Sweeps resume through store= instead.
    path = tmp_path / "cell.ckpt"
    with pytest.raises(ConfigurationError, match="resume.*store="):
        run_many(
            _factory, [64], repetitions=3, max_parallel_time=500.0,
            checkpoint_every=64, checkpoint_path=path, resume=True,
        )
    with pytest.raises(ConfigurationError, match="resume.*store="):
        run_cells(
            _factory, 64, [1, 2], max_parallel_time=500.0,
            checkpoint_every=64, checkpoint_path=path, resume=True,
            store=tmp_path / "store",
        )
    assert not path.exists()


# ----------------------------------------------------------------------
# Closure tables: per-agent cells start on their calibration's closure
# ----------------------------------------------------------------------
def _gsu_factory(n: int):
    from repro.core.protocol import GSULeaderElection

    return GSULeaderElection.for_population(n)


def _gs18_factory(n: int):
    from repro.protocols.gs18 import GS18LeaderElection

    return GS18LeaderElection.for_population(n)


_SHARING_FACTORIES = {"gsu19": _gsu_factory, "gs18": _gs18_factory}
_SHARING_SIZES = (256, 512)
_SHARING_REPETITIONS = 4
_SHARING_BASE_SEED = 31
_SHARING_MPT = 200.0

#: Fresh per-cell references, computed once per test process.
_FRESH_REFERENCES: dict = {}


def _fresh_reference(name: str, n: int, seed: int):
    from repro.experiments.runner import convergence_for

    key = (name, n, seed)
    if key not in _FRESH_REFERENCES:
        protocol = _SHARING_FACTORIES[name](n)
        _FRESH_REFERENCES[key] = run_protocol(
            protocol,
            n,
            seed=seed,
            max_parallel_time=_SHARING_MPT,
            convergence=convergence_for(protocol),
            engine_cls="auto",
        )
    return _FRESH_REFERENCES[key]


def _same_result(observed, expected) -> bool:
    """Field-for-field equality except the wall clock."""

    def fields(result):
        values = dict(vars(result))
        values.pop("wall_clock_seconds")
        return values

    return fields(observed) == fields(expected)


def _protocols_used(monkeypatch) -> list:
    """Record the protocol instance every cell of a sweep runs on."""
    used = []
    original = parallel.run_protocol

    def recording(protocol, n, **kwargs):
        used.append(protocol)
        return original(protocol, n, **kwargs)

    monkeypatch.setattr(parallel, "run_protocol", recording)
    return used


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_table_sharing_units_match_fresh_runs(backend, tmp_path, monkeypatch):
    """Sweep cells reproduce one-cell runs, serially and on the pool.

    Both sizes of each protocol have one calibration, so a process builds
    one closure and every cell starts on a table adopted from it.  A cell
    equals its ``run_protocol`` run field for field, and the store holds
    every cell under the key a one-cell sweep uses.
    """
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    store = ExperimentStore(tmp_path / "shared")
    reference_store = ExperimentStore(tmp_path / "fresh")
    for name, factory in sorted(_SHARING_FACTORIES.items()):
        convergence = parallel._ProtocolConvergence(factory)
        points = run_many(
            factory,
            list(_SHARING_SIZES),
            repetitions=_SHARING_REPETITIONS,
            base_seed=_SHARING_BASE_SEED,
            max_parallel_time=_SHARING_MPT,
            convergence_factory=convergence,
            engine="auto",
            workers=0 if backend == "serial" else 2,
            store=store,
        )
        for point in points:
            fresh = _fresh_reference(name, point.n, point.seed)
            assert _same_result(point.result, fresh)
            key, _ = parallel._cell_key_for(
                store, factory, point.n, point.seed, _SHARING_MPT,
                convergence, "auto", {},
            )
            reference_store.save_result(key, fresh)
            assert _same_result(
                store.load_result(key), reference_store.load_result(key)
            )


def test_sweep_shares_one_table_per_calibration(monkeypatch):
    # Every cell builds its own protocol and table; per-agent cells of one
    # calibration share its closure's one read-only LUT, across sizes too.
    used = _protocols_used(monkeypatch)
    run_many(_gsu_factory, [256, 512], repetitions=2, max_parallel_time=50.0, engine="auto")
    assert len(used) == 4 and len({id(protocol) for protocol in used}) == 4
    tables = [protocol.compile() for protocol in used]
    assert len({id(table) for table in tables}) == 4
    (lut,) = {id(table.packed.base): table.packed.base for table in tables}.values()
    assert lut is _gsu_factory(256).state_closure()[1]


def test_serial_sweep_compiles_each_pair_once(monkeypatch):
    # The closure BFS compiled every pair of the calibration once; no cell
    # evaluates a transition again.
    from repro.core.protocol import GSULeaderElection

    _gsu_factory(256).reachable_state_closure()
    evaluated = []
    transition = GSULeaderElection.transition

    def counting(self, responder, initiator):
        evaluated.append((responder, initiator))
        return transition(self, responder, initiator)

    monkeypatch.setattr(GSULeaderElection, "transition", counting)
    used = _protocols_used(monkeypatch)
    points = run_many(
        _gsu_factory, [256, 512], repetitions=2, max_parallel_time=200.0, engine="auto"
    )
    assert len(used) == 4 and all(point.result.states_used for point in points)
    assert not evaluated


def test_table1_cell_key_is_pinned(tmp_path):
    # One GSU19 cell of the default Table 1 sweep, stored through
    # runner.sweep: the table layout must not change cell keys.
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import sweep
    from repro.experiments.table1 import SIMULATED_PROTOCOLS

    config = ExperimentConfig.default()
    _, factory, _ = SIMULATED_PROTOCOLS[3]
    sweep(
        factory, [256], repetitions=1, base_seed=config.base_seed,
        max_parallel_time=config.max_parallel_time, engine="auto", store=tmp_path,
    )
    assert [path.stem for path in (tmp_path / "cells").glob("*.json")] == [
        "357bd6815118c7bb39681032e6f08a6dae79fcdefefa527552194a5466cc7ee4"
    ]


@pytest.mark.parametrize(
    "run_kwargs",
    [
        pytest.param({"recorders": []}, id="recorders"),
        pytest.param({"checkpoint_every": 256}, id="checkpoint_every"),
        pytest.param({"raise_on_budget": False}, id="raise_on_budget"),
    ],
)
def test_ungroupable_cells_run_on_fresh_protocols(run_kwargs, tmp_path, monkeypatch):
    run_kwargs = dict(run_kwargs)
    if "checkpoint_every" in run_kwargs:
        run_kwargs["checkpoint_path"] = tmp_path / "cell.ckpt"
    used = _protocols_used(monkeypatch)
    run_cells(
        _gsu_factory, 256, [1, 2, 3], max_parallel_time=20.0,
        engine="sequential", **run_kwargs,
    )
    assert len(used) == 3 and len({id(protocol) for protocol in used}) == 3


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_failing_seed_in_sharing_unit_fails_only_its_cell(backend, tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    original = parallel.run_protocol

    def flaky(protocol, n, *, seed, **kwargs):
        if seed == 42:
            raise RuntimeError("seed 42 breaks")
        return original(protocol, n, seed=seed, **kwargs)

    monkeypatch.setattr(parallel, "run_protocol", flaky)
    store = ExperimentStore(tmp_path)
    seeds = [41, 42, 43, 44]
    with pytest.raises(SweepError) as excinfo:
        run_cells(
            _gsu_factory, 256, seeds, max_parallel_time=50.0, engine="auto",
            workers=0 if backend == "serial" else 2,
            store=store,
        )
    error = excinfo.value
    assert [(n, seed) for n, seed, _ in error.failures] == [(256, 42)]
    assert isinstance(error.failures[0][2], RuntimeError)
    assert [point.seed for point in error.points] == [41, 43, 44]
    assert store.stored == 3
