"""Tests for the experiment harness (config, runner, registry, io) and smoke
runs of the individual experiments."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.protocol import GSULeaderElection
from repro.engine.convergence import SingleLeader
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure2 import idealised_survivor_series
from repro.experiments.io import write_result, write_result_json, write_table_csv
from repro.experiments.lemmas import simulate_final_elimination_rounds
from repro.experiments.registry import available_experiments, get_experiment, run_experiment
from repro.engine.parallel import run_cells
from repro.experiments.runner import ExperimentResult, ExperimentTable, convergence_for, sweep
from repro.core.params import GSUParams
from repro.engine.rng import make_rng
from repro.protocols.slow import SlowLeaderElection


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
def test_config_presets_are_valid():
    presets = (
        ExperimentConfig.smoke(),
        ExperimentConfig.default(),
        ExperimentConfig.large(),
        ExperimentConfig.headline(),
    )
    for preset in presets:
        assert preset.repetitions >= 1
        assert len(preset.population_sizes) >= 1


def test_headline_preset_targets_the_count_space_tier():
    """The n = 10^7/10^8 GSU19 count-space tier rides on auto dispatch: the
    10^8 point only exists because the configuration-space engine does."""
    preset = ExperimentConfig.headline()
    assert preset.population_sizes == (10**7, 10**8)
    assert preset.engine == "auto"
    # The Θ(n)-time baselines must stay capped far below the tier sizes.
    assert preset.slow_protocol_max_n <= 10**5
    # CLI exposure: the preset is selectable as --preset headline.
    from repro.cli import _PRESETS

    assert _PRESETS["headline"]() == preset


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(population_sizes=())
    with pytest.raises(ConfigurationError):
        ExperimentConfig(population_sizes=(4,))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(repetitions=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(max_parallel_time=0)


def test_config_sizes_capped():
    config = ExperimentConfig(population_sizes=(256, 512, 1024))
    assert config.sizes_capped(600) == [256, 512]
    assert config.sizes_capped(100) == [256]  # falls back to the smallest


def test_config_with_overrides():
    config = ExperimentConfig.smoke().with_sizes([64, 128]).with_repetitions(3)
    assert config.population_sizes == (64, 128)
    assert config.repetitions == 3


# ----------------------------------------------------------------------
# Runner plumbing
# ----------------------------------------------------------------------
def test_experiment_table_row_validation():
    table = ExperimentTable(name="t", headers=["a", "b"])
    table.add_row(1, 2)
    with pytest.raises(ExperimentError):
        table.add_row(1)
    assert "t" in table.to_text()
    assert table.to_markdown().startswith("### t")


def test_experiment_result_table_lookup():
    result = ExperimentResult(experiment="x", description="d")
    table = result.add_table("numbers", ["a"])
    assert result.table("numbers") is table
    with pytest.raises(ExperimentError):
        result.table("missing")
    assert "Experiment: x" in result.to_text()
    assert result.to_markdown().startswith("## x")


def test_convergence_for_prefers_protocol_method():
    protocol = GSULeaderElection.for_population(256)
    predicate = convergence_for(protocol)
    assert isinstance(predicate, SingleLeader)
    assert convergence_for(SlowLeaderElection()) is None


def test_run_cells_returns_results_per_seed():
    points = run_cells(
        lambda n: SlowLeaderElection(), 32, [1, 2, 3], max_parallel_time=2000
    )
    assert len(points) == 3
    assert all(point.result.converged for point in points)


def test_repeated_sizes_are_rejected():
    # A sweep returns {n: outcomes}, so a repeated size would silently lose
    # the cells of all but one of its runs.
    with pytest.raises(ConfigurationError, match=r"\[16\] repeat"):
        sweep(
            lambda n: SlowLeaderElection(), [16, 32, 16],
            repetitions=2, base_seed=1, max_parallel_time=200,
        )
    with pytest.raises(ConfigurationError, match=r"\[128\] repeat"):
        ExperimentConfig.smoke().with_sizes((128, 128))
    from repro.cli import build_parser, config_from_args

    args = build_parser().parse_args(["run", "table1", "--sizes", "128", "128"])
    with pytest.raises(ConfigurationError, match=r"\[128\] repeat"):
        config_from_args(args)


def test_sweep_rejects_a_zero_check_period():
    # 0 is not "the default period": it must be refused, as by run_protocol.
    with pytest.raises(ConfigurationError, match="positive interaction period"):
        sweep(
            lambda n: SlowLeaderElection(), [16],
            repetitions=1, base_seed=1, max_parallel_time=200, check_every=0,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_lists_all_design_doc_experiments():
    names = available_experiments()
    for expected in ("table1", "figure1", "figure2", "figure3", "lemma41", "lemma53", "lemma71", "lemma73", "clock"):
        assert expected in names


def test_registry_unknown_experiment_raises():
    with pytest.raises(ExperimentError):
        get_experiment("not-an-experiment")


# ----------------------------------------------------------------------
# Experiment helpers
# ----------------------------------------------------------------------
def test_idealised_survivor_series_is_decreasing():
    params = GSUParams.from_population_size(1024)
    series = idealised_survivor_series(1024, params)
    # cnt counts down, so reading cnt from high to low must be non-increasing.
    values = [series[cnt] for cnt in sorted(series, reverse=True)]
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))
    assert min(values) >= 1.0


def test_simulate_final_elimination_rounds_terminates_quickly():
    rng = make_rng(0)
    rounds = [simulate_final_elimination_rounds(20, 0.25, rng) for _ in range(200)]
    assert all(r < 200 for r in rounds)
    assert sum(rounds) / len(rounds) < 25


def test_simulate_final_elimination_single_candidate_needs_no_rounds():
    rng = make_rng(0)
    assert simulate_final_elimination_rounds(1, 0.25, rng) == 0


# ----------------------------------------------------------------------
# Small end-to-end experiment runs (fast ones only)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        population_sizes=(128,),
        repetitions=1,
        max_parallel_time=4000,
        slow_protocol_max_n=128,
    )


def test_lemma73_experiment_runs(tiny_config):
    result = run_experiment("lemma73", tiny_config)
    assert result.experiment == "lemma73"
    assert result.table("rounds to a single candidate").rows


def test_clock_experiment_runs(tiny_config):
    result = run_experiment("clock", tiny_config)
    assert result.table("round length").rows


def test_figure1_experiment_runs(tiny_config):
    result = run_experiment("figure1", tiny_config)
    rows = result.table("coin levels").rows
    assert rows
    # Level-0 coins are roughly a quarter of the population.
    level0 = [row for row in rows if row[1] == 0][0]
    assert 0.15 * 128 < float(level0[2]) < 0.35 * 128


def test_lemma41_experiment_runs(tiny_config):
    result = run_experiment("lemma41", tiny_config)
    rows = result.table("uninitialised agents").rows
    assert rows and float(rows[0][2]) < 0.25


# ----------------------------------------------------------------------
# IO
# ----------------------------------------------------------------------
def test_table1_process_pool_matches_serial():
    """Table 1's protocol factories pickle: at n = 64 ``auto`` resolves to
    an interpreted engine, so ``workers=2`` drains the cells through a
    process pool, and the measured table equals the serial one."""
    from repro.experiments.table1 import run_table1

    config = ExperimentConfig.smoke().with_sizes([64]).with_repetitions(2)
    config = config.with_engine("auto")
    serial = run_table1(config)
    pooled = run_table1(config.with_workers(2))
    assert pooled.table("measured").rows == serial.table("measured").rows
    # The reference table reproduces the paper's eight asymptotic rows.
    assert len(serial.table("paper reference (asymptotic)").rows) == 8


def test_write_result_creates_files(tmp_path: Path):
    result = ExperimentResult(experiment="demo", description="d")
    table = result.add_table("numbers", ["a", "b"])
    table.add_row(1, 2)
    directory = write_result(result, tmp_path)
    assert (directory / "result.json").exists()
    assert (directory / "result.md").exists()
    assert (directory / "numbers.csv").exists()
    payload = json.loads((directory / "result.json").read_text())
    assert payload["experiment"] == "demo"
    assert payload["tables"][0]["rows"] == [[1, 2]]


def test_write_table_csv_roundtrip(tmp_path: Path):
    table = ExperimentTable(name="t", headers=["x"], rows=[[1], [2]])
    path = write_table_csv(table, tmp_path / "t.csv")
    content = path.read_text().strip().splitlines()
    assert content == ["x", "1", "2"]


def test_write_result_json_handles_odd_values(tmp_path: Path):
    result = ExperimentResult(experiment="demo", description="d")
    result.metadata["sizes"] = (128, 256)
    result.metadata["mapping"] = {"a": 1}
    result.metadata["object"] = object()
    path = write_result_json(result, tmp_path / "result.json")
    payload = json.loads(path.read_text())
    assert payload["metadata"]["sizes"] == [128, 256]
    assert payload["metadata"]["mapping"] == {"a": 1}
    assert isinstance(payload["metadata"]["object"], str)
