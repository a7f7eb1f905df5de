"""Scenario layer: topology schedulers, churn/fault models, registries.

Scheduler tests pin the :class:`~repro.engine.scheduler.PairScheduler`
contract for every topology: edges respect the declared interaction graph,
snapshots resume the pair stream bit-exactly, and a snapshot can never
silently restore into a different topology.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.scheduler import (
    CycleScheduler,
    Grid2DScheduler,
    PairSampler,
    PowerLawScheduler,
    RandomRegularScheduler,
)
from repro.errors import CheckpointError, ConfigurationError
from repro.scenarios import (
    ChurnModel,
    Complete,
    Cycle,
    FaultModel,
    Scenario,
    active_scenario,
    available_scenarios,
    available_topologies,
    get_scenario,
    register_scenario,
    topology_from_name,
)

_SCHEDULERS = {
    "complete": lambda n, rng: PairSampler(n, rng),
    "cycle": lambda n, rng: CycleScheduler(n, rng),
    "grid2d": lambda n, rng: Grid2DScheduler(n, rng),
    "random-regular": lambda n, rng: RandomRegularScheduler(n, rng, degree=4),
    "powerlaw": lambda n, rng: PowerLawScheduler(n, rng, alpha=1.0),
}


# ----------------------------------------------------------------------
# Edge validity per topology
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(_SCHEDULERS))
def test_pair_block_produces_distinct_in_range_pairs(kind):
    scheduler = _SCHEDULERS[kind](24, 3)
    a, b = scheduler.pair_block(4000)
    assert a.shape == b.shape == (4000,)
    assert np.all(a != b)
    assert a.min() >= 0 and a.max() < 24
    assert b.min() >= 0 and b.max() < 24


def test_cycle_edges_are_ring_edges():
    n = 17
    a, b = CycleScheduler(n, 5).pair_block(5000)
    gap = np.minimum((a - b) % n, (b - a) % n)
    assert np.all(gap == 1)


def test_grid2d_edges_are_torus_neighbours():
    scheduler = Grid2DScheduler(24, 7)  # 4 x 6 torus
    rows, cols = scheduler.rows, scheduler.cols
    assert rows * cols == 24
    a, b = scheduler.pair_block(5000)
    ra, ca = np.divmod(a, cols)
    rb, cb = np.divmod(b, cols)
    row_gap = np.minimum((ra - rb) % rows, (rb - ra) % rows)
    col_gap = np.minimum((ca - cb) % cols, (cb - ca) % cols)
    # Exactly one coordinate differs, by one step on the torus.
    assert np.all(row_gap + col_gap == 1)


def test_grid2d_rejects_prime_population():
    with pytest.raises(ConfigurationError, match="factorisation"):
        Grid2DScheduler(13, 0)


def test_grid2d_rejects_bad_rows():
    with pytest.raises(ConfigurationError, match="rows"):
        Grid2DScheduler(24, 0, rows=5)


def test_random_regular_graph_is_d_regular():
    n, degree = 30, 4
    scheduler = RandomRegularScheduler(n, 9, degree=degree)
    endpoints = np.concatenate([scheduler._edge_u, scheduler._edge_v])
    assert np.array_equal(np.bincount(endpoints, minlength=n), np.full(n, degree))
    assert np.all(scheduler._edge_u != scheduler._edge_v)
    # Sampled pairs stay within the built edge set.
    edges = set(map(tuple, np.sort(np.column_stack([scheduler._edge_u, scheduler._edge_v]), axis=1)))
    a, b = scheduler.pair_block(2000)
    sampled = set(map(tuple, np.sort(np.column_stack([a, b]), axis=1)))
    assert sampled <= edges


@pytest.mark.parametrize("degree", [3, 0, 30])
def test_random_regular_rejects_bad_degree(degree):
    with pytest.raises(ConfigurationError, match="degree"):
        RandomRegularScheduler(30, 0, degree=degree)


def test_powerlaw_is_hub_heavy():
    scheduler = PowerLawScheduler(32, 11, alpha=1.0)
    a, b = scheduler.pair_block(40_000)
    counts = np.bincount(np.concatenate([a, b]), minlength=32)
    # Zipf weights: agent 0 carries far more contacts than the tail.
    assert counts[0] > 3 * counts[-1]


def test_powerlaw_rejects_negative_alpha():
    with pytest.raises(ConfigurationError, match="alpha"):
        PowerLawScheduler(16, 0, alpha=-1.0)


# ----------------------------------------------------------------------
# Snapshot / restore across every scheduler kind
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(_SCHEDULERS))
def test_scheduler_snapshot_resumes_pair_stream_exactly(kind):
    scheduler = _SCHEDULERS[kind](24, 13)
    scheduler.pair_block(37)  # advance the generator past a prefix
    snapshot = scheduler.state_snapshot()
    expected = [scheduler.pair_block(size) for size in (1, 50, 500)]

    restored = _SCHEDULERS[kind](24, 999)
    restored.state_restore(snapshot)
    for size, (responders, initiators) in zip((1, 50, 500), expected):
        block = restored.pair_block(size)
        assert np.array_equal(block[0], responders)
        assert np.array_equal(block[1], initiators)


@pytest.mark.parametrize("kind", sorted(_SCHEDULERS))
def test_scheduler_snapshot_records_kind(kind):
    scheduler = _SCHEDULERS[kind](24, 1)
    assert scheduler.state_snapshot()["kind"] == type(scheduler).kind == kind


def test_snapshot_rejects_kind_mismatch():
    snapshot = CycleScheduler(24, 1).state_snapshot()
    with pytest.raises(CheckpointError, match="'cycle'"):
        PairSampler(24, 1).state_restore(snapshot)


def test_snapshot_reads_legacy_pending_lists():
    """Snapshots in the historical layout (no ``kind``, the pending tail as
    ``pending_a``/``pending_b`` lists) restore unchanged when the tail is
    empty; a non-empty tail is refused, since no pair is owed any more."""
    sampler = PairSampler(64, rng=5)
    sampler.pair_block(10)
    snapshot = sampler.state_snapshot()
    expected = sampler.pair_block(40)

    legacy = {"n": snapshot["n"], "rng": snapshot["rng"], "pending_a": [], "pending_b": []}
    restored = PairSampler(64, rng=999)
    restored.state_restore(legacy)
    block = restored.pair_block(40)
    assert np.array_equal(block[0], expected[0])
    assert np.array_equal(block[1], expected[1])

    legacy.update(pending_a=[3], pending_b=[7])
    with pytest.raises(CheckpointError, match="non-empty pending tail"):
        PairSampler(64, rng=999).state_restore(legacy)


def test_grid_snapshot_rejects_rows_mismatch():
    snapshot = Grid2DScheduler(24, 1, rows=4).state_snapshot()
    with pytest.raises(CheckpointError, match="rows"):
        Grid2DScheduler(24, 1, rows=2).state_restore(snapshot)


def test_random_regular_snapshot_rebuilds_identical_graph():
    scheduler = RandomRegularScheduler(40, 21, degree=6)
    snapshot = scheduler.state_snapshot()
    assert "graph_seed" in snapshot  # O(1): seed, not edge arrays
    restored = RandomRegularScheduler(40, 0, degree=6)
    restored.state_restore(snapshot)
    assert np.array_equal(restored._edge_u, scheduler._edge_u)
    assert np.array_equal(restored._edge_v, scheduler._edge_v)


# ----------------------------------------------------------------------
# Churn / fault models
# ----------------------------------------------------------------------
def test_churn_model_validation_and_null():
    assert ChurnModel.none().is_null
    assert not ChurnModel.symmetric(1e-3).is_null
    with pytest.raises(ConfigurationError):
        ChurnModel(join_rate=-0.1)


def test_fault_model_parse():
    model = FaultModel.parse("crash:1e-4,drop:0.1,byzantine:0.02")
    assert model.crash_rate == pytest.approx(1e-4)
    assert model.drop_p == pytest.approx(0.1)
    assert model.byzantine_fraction == pytest.approx(0.02)
    with pytest.raises(ConfigurationError):
        FaultModel.parse("meteor:0.5")
    with pytest.raises(ConfigurationError):
        FaultModel.parse("")
    with pytest.raises(ConfigurationError):
        FaultModel(drop_p=1.5)


# ----------------------------------------------------------------------
# Scenario bundling and registry
# ----------------------------------------------------------------------
def test_default_scenario_normalises_to_none():
    assert active_scenario(None) is None
    assert active_scenario(Scenario.complete()) is None
    cycle = Scenario(topology=Cycle())
    assert active_scenario(cycle) is cycle
    with pytest.raises(ConfigurationError):
        active_scenario("cycle")


def test_scenario_requirements():
    assert Scenario.complete().requirements() == frozenset()
    assert Scenario(topology=Cycle()).requirements() == {"topology"}
    full = Scenario(
        topology=Cycle(),
        churn=ChurnModel.symmetric(1e-3),
        faults=FaultModel(crash_rate=1e-4),
    )
    assert full.requirements() == {"topology", "churn", "faults"}


def test_topology_registry():
    assert "cycle" in available_topologies()
    assert isinstance(topology_from_name("complete"), Complete)
    built = topology_from_name("cycle").build(16, np.random.default_rng(0))
    assert isinstance(built, CycleScheduler)
    with pytest.raises(ConfigurationError, match="topology"):
        topology_from_name("moebius")


def test_scenario_registry():
    names = available_scenarios()
    for expected in ("complete", "cycle", "churn", "crash", "cycle-churn"):
        assert expected in names
    assert get_scenario("cycle").topology == Cycle()
    with pytest.raises(ConfigurationError):
        get_scenario("nope")
    with pytest.raises(ConfigurationError):
        register_scenario("cycle", Scenario(topology=Cycle()))


def test_scenario_describe_and_label():
    scenario = get_scenario("cycle-churn")
    description = scenario.describe()
    assert description["topology"] == {"name": "cycle"}
    assert description["churn"]["join_rate"] > 0
    assert "name" not in description  # labels don't affect identity
    assert scenario.label() == "cycle-churn"
