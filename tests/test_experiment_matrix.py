"""The protocols × scenarios re-election matrix experiment and its CLI/store
plumbing: grid shape, store keys (stability for scenario-free configs),
persist/resume, and the --topology/--churn/--faults flags."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, config_from_args, scenario_from_args
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.matrix import MATRIX_PROTOCOLS, MATRIX_SCENARIOS, run_matrix
from repro.experiments.registry import (
    _config_fields,
    available_experiments,
    experiment_key,
    run_experiment,
)
from repro.scenarios import Cycle, Scenario, get_scenario


def _tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        population_sizes=(48,),
        repetitions=2,
        max_parallel_time=200.0,
        slow_protocol_max_n=48,
    )


def test_matrix_is_registered():
    assert "matrix" in available_experiments()


def test_matrix_runs_full_grid():
    result = run_matrix(_tiny_config())
    grid = result.table("re-election matrix")
    assert grid.headers == ["protocol"] + MATRIX_SCENARIOS
    assert len(grid.rows) == len(MATRIX_PROTOCOLS) >= 4
    assert len(MATRIX_SCENARIOS) >= 5
    # The classical-model control column passes for every protocol.
    complete_column = grid.headers.index("complete")
    for row in grid.rows:
        assert row[complete_column].startswith("PASS")
    detail = result.table("detail")
    assert len(detail.rows) == len(MATRIX_PROTOCOLS) * len(MATRIX_SCENARIOS)
    # GSU19 is exercised under churn and under crash faults.
    gsu_cells = {row[1] for row in detail.rows if row[0] == "gsu19-leader-election"}
    assert {"churn", "crash"} <= gsu_cells


def test_matrix_persists_and_resumes_through_store(tmp_path):
    config = _tiny_config()
    first = run_experiment("matrix", config, store=tmp_path)
    assert not first.metadata.get("loaded_from_store")
    again = run_experiment("matrix", config, store=tmp_path, resume=True)
    assert again.metadata.get("loaded_from_store")
    assert again.table("re-election matrix").rows == first.table(
        "re-election matrix"
    ).rows


# ----------------------------------------------------------------------
# Config / store keys
# ----------------------------------------------------------------------
def test_scenario_free_config_fields_match_pre_scenario_layout():
    """scenario=None must not appear in the key fields: keys minted before
    the field existed stay valid."""
    fields = _config_fields(ExperimentConfig.smoke())
    assert "scenario" not in fields


def test_scenario_changes_experiment_key():
    base = _tiny_config()
    disrupted = base.with_scenario(get_scenario("cycle-churn"))
    assert experiment_key("table1", base) != experiment_key("table1", disrupted)
    # describe()-based identity: an equal scenario keys identically.
    same = base.with_scenario(get_scenario("cycle-churn"))
    assert experiment_key("table1", disrupted) == experiment_key("table1", same)


def test_config_rejects_non_scenario():
    with pytest.raises(ConfigurationError, match="scenario"):
        _tiny_config().with_scenario("cycle")


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
def test_cli_scenario_flags_build_a_scenario():
    parser = build_parser()
    args = parser.parse_args(
        ["run", "table1", "--topology", "cycle", "--churn", "0.01"]
    )
    scenario = scenario_from_args(args)
    assert scenario.topology == Cycle()
    assert scenario.churn.join_rate == pytest.approx(0.01)
    config = config_from_args(args)
    assert config.scenario == scenario


def test_cli_faults_flag():
    parser = build_parser()
    args = parser.parse_args(["run", "matrix", "--faults", "crash:1e-4"])
    scenario = scenario_from_args(args)
    assert scenario.faults.crash_rate == pytest.approx(1e-4)
    assert scenario.topology.is_complete


def test_cli_without_scenario_flags_leaves_config_untouched():
    parser = build_parser()
    args = parser.parse_args(["run", "table1", "--preset", "smoke"])
    assert scenario_from_args(args) is None
    assert config_from_args(args).scenario is None


def test_run_cells_routes_scenario_through_scheduler():
    from repro.engine.parallel import run_cells
    from repro.protocols.slow import SlowLeaderElection

    points = run_cells(
        lambda n: SlowLeaderElection(),
        48,
        [1, 2],
        max_parallel_time=20.0,
        scenario=Scenario(topology=Cycle()),
    )
    assert len(points) == 2
    for point in points:
        assert point.recorders == []
        assert point.result.metadata["scenario"]
