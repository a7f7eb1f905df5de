"""On-disk experiment store: cell-level sweep resumability.

The acceptance property: an interrupted ``run_many`` sweep resumed with a
store executes **only the missing cells** — verified here by counting the
actual ``run_protocol`` invocations.
"""

from __future__ import annotations

import errno
import json
import re

import pytest

import repro.engine.parallel as parallel
from repro.engine.convergence import NeverConverge
from repro.engine.parallel import run_cells, run_many
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import experiment_key, run_experiment
from repro.experiments.runner import ExperimentResult, sweep
from repro.experiments.store import ExperimentStore, canonical_engine_spec, content_key
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.slow import SlowLeaderElection


@pytest.fixture
def run_counter(monkeypatch):
    """Counts actual simulation executions behind the sweep scheduler."""
    calls = []
    real = parallel.run_protocol

    def counting(*args, **kwargs):
        calls.append((args[1], kwargs.get("seed")))
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "run_protocol", counting)
    return calls


def _slow_factory(n):
    """Module-level factory: picklable for the process-pool path."""
    return SlowLeaderElection()


def _sweep(store, ns, repetitions=2):
    return run_many(
        lambda n: SlowLeaderElection(),
        ns,
        repetitions=repetitions,
        max_parallel_time=500.0,
        store=store,
    )


def test_resumed_sweep_runs_only_missing_cells(tmp_path, run_counter):
    store = ExperimentStore(tmp_path / "store")

    # "Interrupted" first attempt: only one of the two sizes completed.
    _sweep(store, [8])
    assert len(run_counter) == 2  # 1 size x 2 repetitions

    # The resumed full sweep must execute exactly the missing 16-cells.
    points = _sweep(store, [8, 16])
    assert len(run_counter) == 4  # +2, NOT +4
    assert [p.extra["cached"] for p in points] == [True, True, False, False]
    assert [(n, seed) for n, seed in run_counter[2:]] == [
        (p.n, p.seed) for p in points[2:]
    ]

    # A third identical sweep is served entirely from disk.
    again = _sweep(store, [8, 16])
    assert len(run_counter) == 4  # no new executions at all
    assert all(p.extra["cached"] for p in again)
    assert [p.result.interactions for p in again] == [
        p.result.interactions for p in points
    ]


def test_store_results_round_trip_equivalently(tmp_path):
    store = ExperimentStore(tmp_path)
    fresh = _sweep(store, [8])
    loaded = _sweep(store, [8])
    for a, b in zip(fresh, loaded):
        assert b.result.converged == a.result.converged
        assert b.result.interactions == a.result.interactions
        assert b.result.parallel_time == a.result.parallel_time
        assert b.result.states_used == a.result.states_used
        assert b.result.final_outputs == a.result.final_outputs
        assert b.result.seed == a.result.seed
        # String states (here "L"/"F") round-trip as themselves, so cached
        # and fresh cells aggregate identically; non-string states would
        # come back as their repr strings (documented).
        assert b.result.final_counts == a.result.final_counts
        assert set(b.result.final_counts) <= {"L", "F"}


def test_cell_key_sensitivity(tmp_path):
    """Any input difference must change the cell key."""
    store = ExperimentStore(tmp_path)
    base = dict(engine=None, convergence=None, max_parallel_time=100.0)
    protocol = SlowLeaderElection()
    reference = content_key(store.cell_inputs(protocol, 64, 1, **base))

    assert content_key(store.cell_inputs(protocol, 64, 2, **base)) != reference
    assert content_key(store.cell_inputs(protocol, 128, 1, **base)) != reference
    assert (
        content_key(
            store.cell_inputs(
                protocol, 64, 1, engine="countbatch",
                convergence=None, max_parallel_time=100.0,
            )
        )
        != reference
    )
    assert (
        content_key(
            store.cell_inputs(
                protocol, 64, 1, engine=None,
                convergence=None, max_parallel_time=200.0,
            )
        )
        != reference
    )
    assert (
        content_key(store.cell_inputs(OneWayEpidemic(), 64, 1, **base)) != reference
    )
    # Equal inputs from a fresh protocol instance hash identically.
    assert content_key(store.cell_inputs(SlowLeaderElection(), 64, 1, **base)) == (
        reference
    )


def test_different_convergence_is_a_different_cell(tmp_path, run_counter):
    store = ExperimentStore(tmp_path)
    kwargs = dict(repetitions=1, max_parallel_time=20.0, store=store)
    run_many(lambda n: SlowLeaderElection(), [16], **kwargs)
    assert len(run_counter) == 1
    run_many(
        lambda n: SlowLeaderElection(),
        [16],
        convergence_factory=lambda n: NeverConverge(),
        **kwargs,
    )
    assert len(run_counter) == 2  # not served from the single-leader cell


def test_canonical_engine_spec_forms():
    from repro.engine.count_batch import CountBatchEngine

    assert canonical_engine_spec(None) == "sequential"
    assert canonical_engine_spec("AUTO") == "auto"
    assert (
        canonical_engine_spec(CountBatchEngine)
        == "repro.engine.count_batch.CountBatchEngine"
    )


def test_approximate_engine_cells_never_alias_exact_ones(tmp_path):
    """Regression (ISSUE 9): an approximate engine's results must live in
    their own cells — a tau-leap or mean-field run served from a cached
    exact cell (or vice versa) would silently launder approximate numbers
    into an exact-tier figure."""
    store = ExperimentStore(tmp_path)
    protocol = SlowLeaderElection()
    base = dict(convergence=None, max_parallel_time=100.0)
    keys = {
        spec: content_key(
            store.cell_inputs(protocol, 64, 1, engine=spec, **base)
        )
        for spec in (None, "sequential", "countbatch", "tauleap", "meanfield")
    }
    assert keys["tauleap"] != keys["sequential"]
    assert keys["meanfield"] != keys["sequential"]
    assert keys["tauleap"] != keys["countbatch"]
    assert keys["tauleap"] != keys["meanfield"]
    # None canonicalises to the sequential default — same (exact) cell.
    assert keys[None] == keys["sequential"]


def test_unreadable_cell_is_a_miss_not_an_error(tmp_path, run_counter):
    store = ExperimentStore(tmp_path)
    _sweep(store, [8], repetitions=1)
    assert len(run_counter) == 1
    cell = next((tmp_path / "cells").glob("*.json"))
    cell.write_text("{truncated")
    points = _sweep(store, [8], repetitions=1)
    assert len(run_counter) == 2  # recomputed
    assert points[0].extra["cached"] is False
    # ... and the record was healed on the way out.
    assert json.loads(cell.read_text())["format"] == "repro-store-cell"


def test_run_many_with_store_and_workers(tmp_path):
    """The pool path resolves hits up-front and persists pool results."""
    store = ExperimentStore(tmp_path)
    kwargs = dict(repetitions=1, max_parallel_time=200.0)
    first = run_many(_slow_factory, [8, 16], workers=2, store=store, **kwargs)
    assert [p.extra["cached"] for p in first] == [False, False]
    again = run_many(_slow_factory, [8, 16], workers=2, store=store, **kwargs)
    assert [p.extra["cached"] for p in again] == [True, True]
    assert [p.result.interactions for p in again] == [
        p.result.interactions for p in first
    ]


def test_run_cells_uses_store_only_without_recorders(tmp_path, run_counter):
    store = ExperimentStore(tmp_path)
    kwargs = dict(max_parallel_time=200.0, store=store)
    run_cells(lambda n: SlowLeaderElection(), 16, [1, 2], **kwargs)
    assert len(run_counter) == 2
    run_cells(lambda n: SlowLeaderElection(), 16, [1, 2], **kwargs)
    assert len(run_counter) == 2  # cached

    # Recorder-bearing cells never consult the store: the time series are
    # live observations that are not persisted.
    from repro.engine.recorder import OutputCountRecorder

    run_cells(
        lambda n: SlowLeaderElection(),
        16,
        [1],
        recorder_factory=lambda: [OutputCountRecorder()],
        **kwargs,
    )
    assert len(run_counter) == 3


def _cycle_sweep(store):
    from repro.scenarios import get_scenario

    return sweep(
        _slow_factory, [16, 24], repetitions=2, base_seed=3, max_parallel_time=200.0,
        scenario=get_scenario("cycle"), store=store, workers=2,
    )


def test_scenario_sweep_stores_and_reloads_every_cell(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    store = ExperimentStore(tmp_path)
    first = _cycle_sweep(store)
    assert store.stored == 4 and store.loaded == 0
    again = _cycle_sweep(store)
    assert store.stored == 4 and store.loaded == 4

    def summary(cells):
        return {
            n: [(r.interactions, r.converged, r.final_counts) for r, _ in outcomes]
            for n, outcomes in cells.items()
        }

    assert summary(again) == summary(first)
    assert all(r.metadata["scenario"] == "cycle" for r, _ in first[16])


@pytest.fixture
def fake_experiment(monkeypatch):
    """Registers a cheap ``fake-exp`` experiment; returns its calls."""
    import repro.experiments.registry as registry

    calls = []

    def fake_runner(config):
        calls.append(config)
        result = ExperimentResult(experiment="fake-exp", description="test stub")
        table = result.add_table("t", ["n", "value"])
        table.add_row(8, 1.5)
        return result

    monkeypatch.setitem(registry._REGISTRY, "fake-exp", fake_runner)
    return calls


def test_experiment_level_store_skips_completed_experiments(tmp_path, fake_experiment):
    calls = fake_experiment
    config = ExperimentConfig.smoke()
    store = ExperimentStore(tmp_path)

    first = run_experiment("fake-exp", config, store=store, resume=True)
    assert len(calls) == 1 and not first.metadata.get("loaded_from_store")

    second = run_experiment("fake-exp", config, store=store, resume=True)
    assert len(calls) == 1  # not re-run
    assert second.metadata["loaded_from_store"] is True
    assert second.table("t").rows == [[8, 1.5]]

    # Without resume the experiment re-runs (and refreshes the record).
    run_experiment("fake-exp", config, store=store)
    assert len(calls) == 2

    # A different configuration is a different record.
    other = config.with_repetitions(3)
    assert experiment_key("fake-exp", other) != experiment_key("fake-exp", config)
    run_experiment("fake-exp", other, store=store, resume=True)
    assert len(calls) == 3


def test_unreadable_experiment_record_is_a_miss_not_an_error(tmp_path, fake_experiment):
    store = ExperimentStore(tmp_path)
    config = ExperimentConfig.smoke()
    run_experiment("fake-exp", config, store=store, resume=True)
    assert len(fake_experiment) == 1
    record = tmp_path / "experiments" / f"{experiment_key('fake-exp', config)}.json"
    record.write_text("{truncated")
    rerun = run_experiment("fake-exp", config, store=store, resume=True)
    assert len(fake_experiment) == 2  # recomputed
    assert not rerun.metadata.get("loaded_from_store")
    # ... and the record was healed on the way out.
    assert json.loads(record.read_text())["format"] == "repro-store-experiment"
    loaded = run_experiment("fake-exp", config, store=store, resume=True)
    assert len(fake_experiment) == 2
    assert loaded.metadata["loaded_from_store"] is True


def test_failed_store_writes_name_the_file(tmp_path, monkeypatch, fake_experiment):
    """On a full disk a stored sweep and a stored experiment raise an
    ExperimentError naming the record, chained to the OSError, and leave
    no temp file behind."""
    from test_engine_checkpoint import _fill_disk

    store = ExperimentStore(tmp_path)
    _fill_disk(monkeypatch)
    cells = re.escape(str(tmp_path / "cells"))
    with pytest.raises(ExperimentError, match=cells) as raised:
        _sweep(store, [8], repetitions=1)
    assert raised.value.__cause__.errno == errno.ENOSPC
    assert list((tmp_path / "cells").iterdir()) == []

    config = ExperimentConfig.smoke()
    record = tmp_path / "experiments" / f"{experiment_key('fake-exp', config)}.json"
    with pytest.raises(ExperimentError, match=re.escape(str(record))) as raised:
        run_experiment("fake-exp", config, store=store)
    assert raised.value.__cause__.errno == errno.ENOSPC
    assert list((tmp_path / "experiments").iterdir()) == []
    assert store.stored == 0


def test_cli_store_resume_flags(tmp_path, capsys):
    from repro.cli import main

    store_dir = str(tmp_path / "store")
    argv = ["run", "figure2", "--preset", "smoke", "--no-charts", "--store", store_dir]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "loaded completed result from store" in out


def test_cli_resume_requires_store():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["run", "figure2", "--preset", "smoke", "--resume"])
