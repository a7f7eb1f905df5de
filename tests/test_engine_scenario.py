"""Engines under scenarios: default invisibility, topology equivalence,
churn/fault dynamics, and engine dispatch gating.

The load-bearing invariant is **default invisibility**: passing the
explicit complete fault-free ``Scenario.complete()`` is byte-identical to
passing no scenario at all, so the 40+ pinned trajectory digests hold
unchanged.  Beyond that, scenario trajectories must be engine-independent
where more than one engine can run them (sequential vs fastbatch on pure
topologies) and deterministic per seed everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.dispatch import auto_engine, resolve_engine, scenario_capable
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.engine.simulation import run_protocol
from repro.errors import ConfigurationError
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.slow import SlowLeaderElection
from repro.scenarios import (
    ChurnModel,
    Cycle,
    FaultModel,
    RandomRegular,
    Scenario,
    SingleAliveLeader,
    get_scenario,
)


def _counts(engine):
    return sorted((repr(s), c) for s, c in engine.state_counts().items())


# ----------------------------------------------------------------------
# Default invisibility
# ----------------------------------------------------------------------
def test_explicit_complete_scenario_is_invisible():
    """scenario=Scenario.complete() must not perturb the pinned trajectory."""
    plain = SequentialEngine(OneWayEpidemic(), 64, rng=7)
    explicit = SequentialEngine(OneWayEpidemic(), 64, rng=7, scenario=Scenario.complete())
    plain.run(500)
    explicit.run(500)
    assert _counts(plain) == _counts(explicit)
    assert explicit.scenario is None
    # No scenario payload leaks into the default snapshot layout.
    assert "scenario" not in explicit.snapshot()


# ----------------------------------------------------------------------
# Topology scenarios
# ----------------------------------------------------------------------
@pytest.mark.parametrize("topology", [Cycle(), RandomRegular(degree=4)])
def test_sequential_and_fastbatch_agree_on_topologies(topology):
    """Two engines, one scheduler contract: identical trajectories, on the
    NumPy path and on the C path (where topology pairs come from the
    scheduler's ``pair_block``, not from the kernel's own draw)."""
    scenario = Scenario(topology=topology)
    seq = SequentialEngine(OneWayEpidemic(), 48, rng=11, scenario=scenario)
    seq.run(700)
    for kernel in ("numpy", "auto"):
        fast = FastBatchEngine(
            OneWayEpidemic(), 48, rng=11, scenario=scenario, kernel=kernel
        )
        if fast._kernel_args is not None:
            assert not fast._kernel_args.bitgen
        fast.run(700)
        assert _counts(seq) == _counts(fast)


def test_cycle_epidemic_spreads_slower_than_complete():
    """Sanity: information on a ring travels O(n) hops, not O(log n), so
    after a few parallel-time units far fewer agents have heard the rumour."""
    n, steps = 256, 4 * 256

    def infected_after(scenario):
        engine = SequentialEngine(OneWayEpidemic(), n, rng=3, scenario=scenario)
        engine.run(steps)
        # The epidemic has two states; the non-initial one is the infection.
        initial = engine.state_counts().get(OneWayEpidemic().initial_state(n), 0)
        return n - initial

    complete = infected_after(None)
    ring = infected_after(Scenario(topology=Cycle()))
    assert ring < complete


# ----------------------------------------------------------------------
# Churn and faults
# ----------------------------------------------------------------------
def test_churn_run_is_deterministic_per_seed():
    scenario = get_scenario("cycle-churn")

    def run():
        engine = SequentialEngine(
            SlowLeaderElection(), 48, rng=17, scenario=scenario
        )
        engine.run(3000)
        return _counts(engine), engine.scenario_counters()

    counts_a, events_a = run()
    counts_b, events_b = run()
    assert counts_a == counts_b
    assert events_a == events_b
    assert events_a["joins"] > 0 or events_a["leaves"] > 0


def test_churn_preserves_population_capacity():
    scenario = Scenario(churn=ChurnModel.symmetric(5e-3))
    engine = SequentialEngine(SlowLeaderElection(), 48, rng=23, scenario=scenario)
    engine.run(4000)
    counts = engine.count_vector()
    assert int(counts.sum()) == 48  # departed slots keep their last state
    rt = engine._scenario_rt
    assert rt.alive_count == 48 - rt.leaves - rt.crashes + rt.joins
    assert 2 <= rt.alive_count <= 48


def test_drop_probability_one_freezes_the_dynamics():
    scenario = Scenario(faults=FaultModel(drop_p=1.0))
    engine = SequentialEngine(OneWayEpidemic(), 32, rng=5, scenario=scenario)
    before = _counts(engine)
    engine.run(1000)
    assert _counts(engine) == before  # every interaction dropped
    assert engine.interactions == 1000  # but time still advances
    assert engine.scenario_counters()["dropped"] == 1000


def test_crashes_are_permanent_and_floored():
    scenario = Scenario(faults=FaultModel(crash_rate=0.05))
    engine = SequentialEngine(SlowLeaderElection(), 16, rng=29, scenario=scenario)
    engine.run(5000)
    rt = engine._scenario_rt
    assert rt.crashes > 0
    assert rt.alive_count >= 2  # liveness floor
    assert np.all(~rt.alive[rt.crashed])  # crashed agents never rejoin
    assert rt.joins == 0  # crash-only scenario has no churn


def test_byzantine_agents_corrupt_responders():
    scenario = Scenario(faults=FaultModel(byzantine_fraction=0.25))
    engine = SequentialEngine(OneWayEpidemic(), 32, rng=31, scenario=scenario)
    engine.run(2000)
    assert engine.scenario_counters()["byzantine_overwrites"] > 0


def test_alive_leader_count_tracks_liveness():
    engine = SequentialEngine(SlowLeaderElection(), 16, rng=1)
    assert engine.alive_leader_count() == engine.leader_count()
    scenario = Scenario(faults=FaultModel(crash_rate=0.05))
    disrupted = SequentialEngine(SlowLeaderElection(), 16, rng=1, scenario=scenario)
    disrupted.run(4000)
    assert disrupted.alive_leader_count() <= disrupted.leader_count()
    assert SingleAliveLeader()(engine) == (engine.leader_count() == 1)


# ----------------------------------------------------------------------
# Dispatch gating
# ----------------------------------------------------------------------
def test_countbatch_rejects_non_complete_topology():
    """Count-space engines assume the complete fault-free model; asking for
    one under a topology scenario is a configuration error that names the
    scenario-capable alternatives."""
    scenario = Scenario(topology=Cycle())
    with pytest.raises(ConfigurationError, match="scenario-capable engines"):
        resolve_engine(
            "countbatch", SlowLeaderElection(), 1024, scenario=scenario
        )
    with pytest.raises(ConfigurationError, match="complete fault-free"):
        run_protocol(
            SlowLeaderElection(),
            64,
            seed=1,
            max_parallel_time=1.0,
            engine_cls="countbatch",
            scenario=scenario,
        )


def test_scenario_capable_predicate():
    from repro.engine.count_batch import CountBatchEngine

    topo = Scenario(topology=Cycle())
    churn = Scenario(churn=ChurnModel.symmetric(1e-3))
    assert scenario_capable(SequentialEngine, topo)
    assert scenario_capable(SequentialEngine, churn)
    assert scenario_capable(FastBatchEngine, topo)
    assert not scenario_capable(FastBatchEngine, churn)
    assert not scenario_capable(CountBatchEngine, topo)
    # The default scenario gates nothing.
    assert scenario_capable(CountBatchEngine, None)
    assert scenario_capable(CountBatchEngine, Scenario.complete())


def test_auto_engine_routes_scenarios():
    churn = Scenario(churn=ChurnModel.symmetric(1e-3))
    assert auto_engine(SlowLeaderElection(), 10**6, scenario=churn) is SequentialEngine
    topo = Scenario(topology=Cycle())
    assert auto_engine(SlowLeaderElection(), 10**6, scenario=topo) is FastBatchEngine
    # Default dispatch decisions are untouched by a None scenario.
    assert auto_engine(SlowLeaderElection(), 10**6) is auto_engine(
        SlowLeaderElection(), 10**6, scenario=None
    )


def test_fastbatch_rejects_churn_scenario():
    with pytest.raises(ConfigurationError, match="sequential"):
        FastBatchEngine(
            SlowLeaderElection(),
            64,
            rng=1,
            scenario=Scenario(churn=ChurnModel.symmetric(1e-3)),
        )


# ----------------------------------------------------------------------
# run_protocol integration
# ----------------------------------------------------------------------
def test_run_protocol_records_scenario_metadata():
    result = run_protocol(
        SlowLeaderElection(),
        48,
        seed=9,
        max_parallel_time=40.0,
        convergence=SingleAliveLeader(),
        scenario=get_scenario("cycle-churn"),
    )
    assert result.metadata["scenario"] == "cycle-churn"
    events = result.metadata["scenario_events"]
    assert set(events) >= {"joins", "leaves", "crashes", "dropped"}


def test_run_protocol_default_has_no_scenario_metadata():
    result = run_protocol(
        SlowLeaderElection(), 48, seed=9, max_parallel_time=10.0
    )
    assert "scenario" not in result.metadata
