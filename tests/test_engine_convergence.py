"""Tests for convergence predicates.

Predicates are exercised on the per-agent reference engine *and* on the
count-space engine (``CountBatchEngine``): every predicate
reads the configuration exclusively through the ``BaseEngine`` inspection
API (``state_count_items`` / ``counts_by_output``), so it must behave
identically whichever population representation is underneath.
"""

from __future__ import annotations

import pytest

from repro.engine.convergence import (
    AllAgentsSatisfy,
    NeverConverge,
    OutputCountCondition,
    SingleLeader,
    StableOutputs,
)
from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.slow import SlowLeaderElection

#: The configuration-space engines (exercised against every predicate below;
#: the per-agent engines were already covered by the original suite).
COUNT_ENGINES = [CountBatchEngine]


@pytest.fixture
def converged_engine() -> SequentialEngine:
    engine = SequentialEngine(SlowLeaderElection(), 32, rng=0)
    engine.run_until(lambda eng: eng.count_of("L") == 1, max_interactions=500_000)
    return engine


def test_never_converge_is_always_false(converged_engine):
    assert NeverConverge()(converged_engine) is False


def test_single_leader_true_when_one_leader(converged_engine):
    assert SingleLeader()(converged_engine) is True


def test_single_leader_false_initially():
    engine = SequentialEngine(SlowLeaderElection(), 16, rng=0)
    assert SingleLeader()(engine) is False


def test_single_leader_extra_condition_blocks(converged_engine):
    predicate = SingleLeader(extra_condition=lambda engine: False)
    assert predicate(converged_engine) is False


def test_single_leader_extra_condition_passes(converged_engine):
    predicate = SingleLeader(extra_condition=lambda engine: True)
    assert predicate(converged_engine) is True


def test_all_agents_satisfy():
    engine = SequentialEngine(OneWayEpidemic(sources=1), 64, rng=1)
    informed = AllAgentsSatisfy(lambda state: state == "informed", "all informed")
    assert informed(engine) is False
    engine.run_parallel_time(60)
    assert informed(engine) is True


def test_output_count_condition():
    engine = SequentialEngine(SlowLeaderElection(), 16, rng=2)
    at_most_five = OutputCountCondition(lambda counts: counts.get("L", 0) <= 5)
    assert at_most_five(engine) is False
    engine.run_until(at_most_five, max_interactions=500_000)
    assert engine.count_of("L") <= 5


def test_stable_outputs_requires_patience():
    engine = SequentialEngine(SlowLeaderElection(), 8, rng=3)
    engine.run_until(lambda eng: eng.count_of("L") == 1, max_interactions=200_000)
    predicate = StableOutputs(patience=3)
    # The configuration no longer changes its outputs; the predicate still
    # needs `patience` consecutive identical observations.
    assert predicate(engine) is False
    assert predicate(engine) is False
    assert predicate(engine) is False
    assert predicate(engine) is True


def test_stable_outputs_reset():
    engine = SequentialEngine(SlowLeaderElection(), 8, rng=3)
    predicate = StableOutputs(patience=1)
    predicate(engine)
    assert predicate(engine) is True
    predicate.reset()
    assert predicate(engine) is False


def test_stable_outputs_rejects_bad_patience():
    with pytest.raises(ValueError):
        StableOutputs(patience=0)


def test_predicates_have_descriptions():
    for predicate in (
        NeverConverge(),
        SingleLeader(),
        StableOutputs(),
        AllAgentsSatisfy(lambda s: True),
        OutputCountCondition(lambda c: True),
    ):
        assert isinstance(predicate.description, str) and predicate.description


# ----------------------------------------------------------------------
# Count-space engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", COUNT_ENGINES)
def test_single_leader_on_count_engines(engine_cls):
    engine = engine_cls(SlowLeaderElection(), 64, rng=0)
    predicate = SingleLeader()
    assert predicate(engine) is False  # everyone starts as a leader
    converged = engine.run_until(predicate, max_interactions=2_000_000)
    assert converged is True
    assert engine.counts_by_output().get("L") == 1


@pytest.mark.parametrize("engine_cls", COUNT_ENGINES)
def test_all_agents_satisfy_on_count_engines(engine_cls):
    engine = engine_cls(OneWayEpidemic(sources=1), 64, rng=1)
    informed = AllAgentsSatisfy(lambda state: state == "informed", "all informed")
    assert informed(engine) is False
    engine.run_parallel_time(60)
    assert informed(engine) is True
    # Sanity: the count representation agrees with the predicate.
    assert engine.count_of("susceptible") == 0


@pytest.mark.parametrize("engine_cls", COUNT_ENGINES)
def test_output_count_condition_on_count_engines(engine_cls):
    engine = engine_cls(SlowLeaderElection(), 32, rng=2)
    at_most_five = OutputCountCondition(lambda counts: counts.get("L", 0) <= 5)
    assert at_most_five(engine) is False
    assert engine.run_until(at_most_five, max_interactions=2_000_000) is True
    assert engine.counts_by_output()["L"] <= 5


@pytest.mark.parametrize("engine_cls", COUNT_ENGINES)
def test_stable_outputs_on_count_engines(engine_cls):
    engine = engine_cls(SlowLeaderElection(), 16, rng=3)
    engine.run_until(
        lambda eng: eng.counts_by_output().get("L", 0) == 1,
        max_interactions=2_000_000,
    )
    predicate = StableOutputs(patience=2)
    assert predicate(engine) is False
    assert predicate(engine) is False
    assert predicate(engine) is True


@pytest.mark.parametrize("engine_cls", COUNT_ENGINES)
def test_run_protocol_convergence_on_count_engines(engine_cls):
    """End-to-end: predicate + driver + count engine through run_protocol."""
    from repro.engine.simulation import run_protocol

    result = run_protocol(
        SlowLeaderElection(),
        64,
        seed=4,
        max_parallel_time=1000.0,
        engine_cls=engine_cls,
    )
    assert result.converged is True
    assert result.leader_count == 1


def test_stable_outputs_state_snapshot_round_trip():
    engine = SequentialEngine(SlowLeaderElection(), 8, rng=3)
    predicate = StableOutputs(patience=3)
    predicate(engine)
    predicate(engine)
    payload = predicate.state_snapshot()
    fresh = StableOutputs(patience=3)
    fresh.state_restore(payload)
    # The restored predicate continues the streak where the original left it.
    assert fresh(engine) is False
    assert fresh(engine) is True


def test_stateless_predicates_have_no_snapshot_state():
    for predicate in (NeverConverge(), SingleLeader(), AllAgentsSatisfy(lambda s: True)):
        assert predicate.state_snapshot() is None
        predicate.state_restore({})  # must be a safe no-op


def test_all_agents_satisfy_declares_its_view():
    predicate = AllAgentsSatisfy(lambda state: True, description="always")
    assert len(predicate.views) == 1
