"""Tests for the simulation driver and result objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.convergence import NeverConverge, SingleLeader
from repro.engine.count_batch import CountBatchEngine
from repro.engine.recorder import MetricRecorder
from repro.engine.simulation import RunResult, Simulation, run_protocol
from repro.errors import ConfigurationError, ConvergenceError
from repro.experiments.io import read_checkpoint
from repro.protocols.slow import SlowLeaderElection


def test_run_protocol_returns_converged_result():
    result = run_protocol(SlowLeaderElection(), 48, seed=1, max_parallel_time=2000)
    assert isinstance(result, RunResult)
    assert result.converged
    assert result.leader_count == 1
    assert result.n == 48
    assert result.protocol_name == "slow-leader-election"
    assert result.parallel_time == pytest.approx(result.interactions / 48)
    assert result.states_used == 2
    assert sum(result.final_counts.values()) == 48


def test_run_protocol_budget_exhaustion_returns_unconverged():
    result = run_protocol(SlowLeaderElection(), 512, seed=1, max_parallel_time=2)
    assert not result.converged
    assert result.leader_count > 1


def test_run_protocol_budget_exhaustion_can_raise():
    with pytest.raises(ConvergenceError):
        run_protocol(
            SlowLeaderElection(), 512, seed=1, max_parallel_time=2, raise_on_budget=True
        )


def test_run_protocol_with_alternative_engine():
    result = run_protocol(
        SlowLeaderElection(),
        64,
        seed=2,
        max_parallel_time=2000,
        engine_cls=CountBatchEngine,
    )
    assert result.converged
    assert result.leader_count == 1


def test_run_protocol_with_recorders_and_check_every():
    recorder = MetricRecorder(metric=lambda eng: eng.count_of("L"), name="leaders")
    run_protocol(
        SlowLeaderElection(),
        64,
        seed=3,
        max_parallel_time=50,
        convergence=NeverConverge(),
        recorders=[recorder],
        check_every=64,
    )
    # One record before the run plus one per parallel-time unit.
    assert len(recorder.values) == 51


def test_simulation_rejects_nonpositive_budget():
    simulation = Simulation(SlowLeaderElection(), 16, rng=0)
    with pytest.raises(ConfigurationError):
        simulation.run(max_parallel_time=0)


def test_simulation_add_recorder_chains():
    simulation = Simulation(SlowLeaderElection(), 16, rng=0)
    recorder = simulation.add_recorder(MetricRecorder(metric=lambda eng: 0.0))
    assert recorder in simulation.recorders


def test_simulation_records_seed_when_integer():
    simulation = Simulation(SlowLeaderElection(), 16, rng=123)
    result = simulation.run(max_parallel_time=1000)
    assert result.seed == 123


@pytest.mark.parametrize("seed", [np.int64(3), np.uint32(3)], ids=["int64", "uint32"])
def test_numpy_integer_seeds_are_recorded_as_ints(tmp_path, seed):
    """A NumPy integer seed runs the same as the int and is recorded as a
    Python int, in the result and in checkpoint payloads."""
    path = tmp_path / "run.ckpt"
    result = run_protocol(
        SlowLeaderElection(), 8, seed=seed, max_parallel_time=40,
        checkpoint_every=8, checkpoint_path=path,
    )
    assert result.seed == 3 and type(result.seed) is int
    assert type(read_checkpoint(path)["seed"]) is int
    reference = run_protocol(SlowLeaderElection(), 8, seed=3, max_parallel_time=40)
    assert result.interactions == reference.interactions


def test_run_result_summary_mentions_key_facts():
    result = run_protocol(SlowLeaderElection(), 32, seed=5, max_parallel_time=2000)
    text = result.summary()
    assert "slow-leader-election" in text
    assert "n=32" in text
    assert "converged" in text


def test_default_convergence_is_single_leader():
    simulation = Simulation(SlowLeaderElection(), 16, rng=0)
    assert isinstance(simulation.convergence, SingleLeader)


def test_wall_clock_seconds_is_positive():
    result = run_protocol(SlowLeaderElection(), 32, seed=5, max_parallel_time=2000)
    assert result.wall_clock_seconds >= 0.0


def test_rejects_unknown_check_every_string():
    with pytest.raises(ConfigurationError):
        Simulation(SlowLeaderElection(), 16, rng=0, check_every="sometimes")
