"""On-disk experiment store: cell-level sweep resumability.

The acceptance property: an interrupted ``run_many`` sweep resumed with a
store executes **only the missing cells** — verified here by counting the
actual ``run_protocol`` invocations.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import re

import pytest

import repro.engine.parallel as parallel
from repro.engine.convergence import NeverConverge
from repro.engine.parallel import run_cells, run_many
from repro.engine.simulation import RunResult
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


def test_engine_cells_never_alias_each_other(tmp_path):
    """Each engine's results live in their own cells: the engines draw
    different trajectories, so a run served from another engine's cached
    cell would report numbers that engine never produced."""
    store = ExperimentStore(tmp_path)
    protocol = SlowLeaderElection()
    base = dict(convergence=None, max_parallel_time=100.0)
    keys = {
        spec: content_key(
            store.cell_inputs(protocol, 64, 1, engine=spec, **base)
        )
        for spec in (None, "sequential", "countbatch", "fastbatch")
    }
    assert len({keys["sequential"], keys["countbatch"], keys["fastbatch"]}) == 3
    # None canonicalises to the sequential default — same cell.
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


def _bump_last_digit(text: str, field: str, value) -> str:
    """``text`` with the last digit of ``"field": value`` changed."""
    digits = str(value)
    edited = digits[:-1] + str((int(digits[-1]) + 1) % 10)
    before = f'"{field}": {digits}'
    assert text.count(before) == 1
    return text.replace(before, f'"{field}": {edited}')


def test_edited_cell_record_is_a_miss(tmp_path, run_counter):
    """A one-digit edit of a stored cell's ``interactions`` fails the
    record's checksum: the cell is recomputed and rewritten, and the edited
    number is never served."""
    store = ExperimentStore(tmp_path)
    _sweep(store, [8], repetitions=1)
    cell = next((tmp_path / "cells").glob("*.json"))
    interactions = json.loads(cell.read_text())["result"]["interactions"]
    cell.write_text(_bump_last_digit(cell.read_text(), "interactions", interactions))
    assert store.load_result(cell.stem) is None
    points = _sweep(store, [8], repetitions=1)
    assert len(run_counter) == 2  # recomputed
    assert points[0].extra["cached"] is False
    assert points[0].result.interactions == interactions
    assert json.loads(cell.read_text())["result"]["interactions"] == interactions


def test_cell_record_under_another_key_is_a_miss(tmp_path, run_counter):
    """A record copied under another cell's file name is not served as that
    cell: its recorded key differs from the file's, so the cell is
    recomputed and its own record written back."""
    store = ExperimentStore(tmp_path)
    _sweep(store, [8, 16], repetitions=1)
    source, target = sorted((tmp_path / "cells").glob("*.json"))
    target.write_text(source.read_text())
    assert store.load_result(target.stem) is None
    assert store.load_result(source.stem) is not None
    _sweep(store, [8, 16], repetitions=1)
    assert len(run_counter) == 3  # only the shadowed cell reran
    assert json.loads(target.read_text())["key"] == target.stem


def test_version_1_records_without_a_checksum_are_recomputed(tmp_path, run_counter):
    """Records written before the checksum (version 1, no ``sha256``) are
    misses: their cells rerun and are rewritten with a checksum."""
    store = ExperimentStore(tmp_path)
    _sweep(store, [8, 16], repetitions=1)
    cells = sorted((tmp_path / "cells").glob("*.json"))
    for cell in cells:
        record = json.loads(cell.read_text())
        del record["sha256"]
        record["version"] = 1
        cell.write_text(json.dumps(record, indent=1, sort_keys=True))
    assert store.load_result(cells[0].stem) is None
    points = _sweep(store, [8, 16], repetitions=1)
    assert len(run_counter) == 4  # both cells reran
    assert not any(point.extra["cached"] for point in points)
    for cell in cells:
        record = json.loads(cell.read_text())
        checksum = record.pop("sha256")
        assert record["version"] == 2 and checksum == content_key(record)
    _sweep(store, [8, 16], repetitions=1)
    assert len(run_counter) == 4  # the rewritten records load


def _save_cell_20_times(directory, key, result, barrier):
    """Writer process of the two-writer test (module-level: it pickles)."""
    store = ExperimentStore(directory)
    barrier.wait(timeout=30)
    for _ in range(20):
        store.save_result(key, result)


def test_two_processes_writing_one_cell_leave_one_whole_record(tmp_path):
    """Two processes save one cell key 20 times each, with different
    results: the record left loads whole as one of the two, its checksum
    holds, and no temp file is left in the store."""
    results = [
        RunResult(
            protocol_name="slow", n=8, seed=seed, converged=True,
            interactions=100 * seed, parallel_time=12.5 * seed, states_used=2,
            final_counts={"L": 1, "F": 7}, final_outputs={"L": 1, "F": 7},
            metadata={"writer": seed},
        )
        for seed in (1, 2)
    ]
    key = content_key({"cell": "shared"})
    context = multiprocessing.get_context()
    barrier = context.Barrier(2)
    writers = [
        context.Process(
            target=_save_cell_20_times, args=(str(tmp_path), key, result, barrier)
        )
        for result in results
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
        assert writer.exitcode == 0
    assert ExperimentStore(tmp_path).load_result(key) in results
    record = json.loads((tmp_path / "cells" / f"{key}.json").read_text())
    assert record.pop("sha256") == content_key(record)
    assert [p.name for p in tmp_path.iterdir()] == ["cells"]
    assert [p.name for p in (tmp_path / "cells").iterdir()] == [f"{key}.json"]


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


def test_edited_experiment_record_is_a_miss(tmp_path, fake_experiment):
    """An experiment record whose table value was edited fails its
    checksum: the experiment reruns and its record is rewritten."""
    store = ExperimentStore(tmp_path)
    config = ExperimentConfig.smoke()
    run_experiment("fake-exp", config, store=store, resume=True)
    record = tmp_path / "experiments" / f"{experiment_key('fake-exp', config)}.json"
    record.write_text(record.read_text().replace("1.5", "2.5"))
    rerun = run_experiment("fake-exp", config, store=store, resume=True)
    assert len(fake_experiment) == 2  # recomputed
    assert not rerun.metadata.get("loaded_from_store")
    loaded = run_experiment("fake-exp", config, store=store, resume=True)
    assert len(fake_experiment) == 2
    assert loaded.table("t").rows == [[8, 1.5]]


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
