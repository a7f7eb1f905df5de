"""Tests for the exact per-agent sequential engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import run_protocol
from repro.engine.engine import SequentialEngine
from repro.errors import ConfigurationError
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.slow import SlowLeaderElection


def test_initial_configuration_counts(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=0)
    assert engine.state_counts() == {"L": small_n}
    assert engine.interactions == 0
    assert engine.parallel_time == 0.0


def test_population_is_conserved_under_simulation(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=1)
    engine.run(10_000)
    assert sum(engine.state_counts().values()) == small_n


def test_leader_count_never_increases(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=2)
    previous = engine.count_of("L")
    for _ in range(50):
        engine.run(200)
        current = engine.count_of("L")
        assert current <= previous
        assert current >= 1
        previous = current


def test_rejects_population_of_one(slow_protocol):
    with pytest.raises(ConfigurationError):
        SequentialEngine(slow_protocol, 1, rng=0)


def test_rejects_negative_run(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=0)
    with pytest.raises(ConfigurationError):
        engine.run(-5)


def test_step_advances_exactly_one_interaction(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=0)
    engine.step()
    assert engine.interactions == 1


def test_run_parallel_time(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=0)
    engine.run_parallel_time(3)
    assert engine.interactions == 3 * small_n
    assert engine.parallel_time == pytest.approx(3.0)


def test_same_seed_gives_identical_trajectories(slow_protocol, small_n):
    a = SequentialEngine(slow_protocol, small_n, rng=99)
    b = SequentialEngine(slow_protocol, small_n, rng=99)
    a.run(5_000)
    b.run(5_000)
    assert a.state_counts() == b.state_counts()
    assert a.agent_state_ids() == b.agent_state_ids()


def test_different_seeds_usually_differ(slow_protocol, small_n):
    a = SequentialEngine(slow_protocol, small_n, rng=1)
    b = SequentialEngine(slow_protocol, small_n, rng=2)
    a.run(2_000)
    b.run(2_000)
    assert a.agent_state_ids() != b.agent_state_ids()


def test_agent_state_and_snapshot(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=0)
    engine.run(500)
    snapshot = engine.population_snapshot()
    assert len(snapshot) == small_n
    assert engine.agent_state(0) == snapshot[0]
    assert set(snapshot) <= {"L", "F"}


def test_counts_match_snapshot(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=5)
    engine.run(3_000)
    snapshot = engine.population_snapshot()
    counts = engine.state_counts()
    for state in set(snapshot):
        assert counts[state] == snapshot.count(state)


def test_counts_by_output(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=3)
    engine.run(2_000)
    outputs = engine.counts_by_output()
    assert outputs["L"] + outputs["F"] == small_n
    assert engine.leader_count() == outputs["L"]


def test_count_where(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=3)
    engine.run(1_000)
    assert engine.count_where(lambda s: s == "L") == engine.count_of("L")
    assert engine.count_where(lambda s: True) == small_n


def test_count_of_unknown_state_is_zero(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=0)
    assert engine.count_of("does-not-exist") == 0


def test_states_ever_occupied_grows_monotonically(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=0)
    assert engine.states_ever_occupied == 1  # everyone starts as L
    engine.run(2_000)
    assert engine.states_ever_occupied == 2  # F appears, never disappears


def test_epidemic_spreads_to_everyone():
    protocol = OneWayEpidemic(sources=1)
    engine = SequentialEngine(protocol, 128, rng=4)
    engine.run_parallel_time(60)  # far beyond the Θ(log n) spreading time
    assert engine.count_of("susceptible") == 0


def test_run_until_with_predicate(slow_protocol):
    engine = SequentialEngine(slow_protocol, 32, rng=6)
    converged = engine.run_until(
        lambda eng: eng.count_of("L") == 1, max_interactions=200_000
    )
    assert converged
    assert engine.count_of("L") == 1


def test_run_until_respects_budget(slow_protocol):
    engine = SequentialEngine(slow_protocol, 256, rng=6)
    converged = engine.run_until(
        lambda eng: eng.count_of("L") == 1, max_interactions=10 * 256
    )
    # 10 parallel time units are far too few for Θ(n) convergence at n=256.
    assert not converged
    assert engine.interactions == 10 * 256


def test_run_until_invokes_observer(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=1)
    seen = []
    engine.run_until(
        lambda eng: False,
        max_interactions=5 * small_n,
        check_every=small_n,
        on_check=lambda eng: seen.append(eng.interactions),
    )
    # One observation before running plus one per check interval.
    assert seen[0] == 0
    assert seen[-1] == 5 * small_n
    assert len(seen) == 6


def test_run_until_rejects_bad_check_every(slow_protocol, small_n):
    engine = SequentialEngine(slow_protocol, small_n, rng=1)
    # A fractional period would truncate to zero-interaction chunks and
    # never reach the budget; "auto" names the retired adaptive cadence.
    for bad in (0, 0.5, 10.5, "auto"):
        with pytest.raises(ConfigurationError, match="positive interaction period, got"):
            engine.run_until(lambda eng: False, max_interactions=10, check_every=bad)
    assert not engine.run_until(
        lambda eng: False, max_interactions=10, check_every=np.int64(4)
    )
    assert engine.interactions == 10
    for bad in (0.5, "auto"):
        with pytest.raises(ConfigurationError, match="positive interaction period, got"):
            run_protocol(
                OneWayEpidemic(), 64, seed=1, max_parallel_time=4.0, check_every=bad
            )
