"""View-vs-decode equivalence for the compiled observation pipeline.

Every compiled state-property view must agree with its Python decode-based
counterpart — the loop over ``state_count_items()`` that decodes each
occupied state and evaluates the property per call — on every engine
representation and at mixed occupancies (fresh configuration, early
dynamics, late dynamics).  The suite drives all 8 pinned protocols through
``sequential``, ``countbatch`` and ``fastbatch``, plus the GSU19 monitor
views against decode reimplementations of the original metrics.
"""

from __future__ import annotations

import pytest

from repro.core.monitor import (
    active_leader_count,
    alive_leader_count,
    high_inhibitor_census,
    inhibitor_drag_census,
    max_leader_drag,
    min_active_cnt,
    role_census,
    uninitialised_count,
)
from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.core.state import is_active_leader, is_alive_leader
from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.engine.protocol import LEADER_OUTPUT
from repro.engine.views import CategoricalView, PredicateView, ValueView
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.exact_majority import ExactMajority
from repro.protocols.gs18 import GS18LeaderElection
from repro.protocols.lottery import LotteryLeaderElection
from repro.protocols.slow import SlowLeaderElection
from repro.types import Elevation, LeaderMode, Role

#: The 8 protocols of the digest suite (small instances, all engines happy).
PROTOCOLS = {
    "epidemic": (lambda: OneWayEpidemic(), 256),
    "exact-majority": (lambda: ExactMajority.for_population(200), 200),
    "gs18": (lambda: GS18LeaderElection.for_population(128), 128),
    "gsu19": (lambda: GSULeaderElection.for_population(256), 256),
    "gsu19-closure": (
        lambda: GSULeaderElection(GSUParams(n_hint=10**8, gamma=4, phi=1, psi=1)),
        256,
    ),
    "lottery": (lambda: LotteryLeaderElection.for_population(128), 128),
    "majority": (lambda: ApproximateMajority(initial_a_fraction=0.7), 200),
    "slow-le": (lambda: SlowLeaderElection(), 64),
}

ENGINES = {
    "sequential": SequentialEngine,
    "countbatch": CountBatchEngine,
    "fastbatch": FastBatchEngine,
}


def _decoded_items(engine):
    return [
        (engine.encoder.decode(sid), count)
        for sid, count in engine.state_count_items()
    ]


def _decode_count_where(engine, fn):
    return sum(count for state, count in _decoded_items(engine) if fn(state))


def _decode_holds_for_all(engine, fn):
    return all(fn(state) for state, _ in _decoded_items(engine))


def _decode_value_census(engine, fn):
    census = {}
    for state, count in _decoded_items(engine):
        value = fn(state)
        if value is None:
            continue
        census[value] = census.get(value, 0) + count
    return census


def _decode_categorical_census(engine, fn):
    census = {}
    for state, count in _decoded_items(engine):
        category = fn(state)
        census[category] = census.get(category, 0) + count
    return census


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_views_match_decode_loops(protocol_name, engine_name):
    """Predicate / value / categorical views == decode loops, all engines."""
    factory, n = PROTOCOLS[protocol_name]
    protocol = factory()
    engine = ENGINES[engine_name](protocol, n, rng=7)

    is_leader_output = lambda state: protocol.output(state) == LEADER_OUTPUT
    output_symbol = protocol.output
    # An arbitrary deterministic metric with inapplicable states, to
    # exercise the missing-value mask.
    def odd_repr_length(state):
        length = len(repr(state))
        return length if length % 2 else None

    leader_view = PredicateView("test-leader", is_leader_output)
    output_view = CategoricalView("test-output", output_symbol)
    length_view = ValueView("test-repr-length", odd_repr_length)

    # Mixed occupancies: the fresh configuration, the early expansion phase
    # (many states appearing), and the late/quiescent phase.
    for parallel_time in (0, 2, 20):
        engine.run(parallel_time * n - engine.interactions)
        assert leader_view.count(engine) == _decode_count_where(
            engine, is_leader_output
        )
        assert leader_view.holds_for_all(engine) == _decode_holds_for_all(
            engine, is_leader_output
        )
        assert output_view.census(engine) == _decode_categorical_census(
            engine, output_symbol
        )
        reference = _decode_value_census(engine, odd_repr_length)
        assert length_view.census(engine) == reference
        assert length_view.max(engine) == (max(reference) if reference else None)
        assert length_view.min(engine) == (min(reference) if reference else None)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("protocol_name", ["gsu19", "gsu19-closure"])
def test_monitor_views_match_decode_loops(protocol_name, engine_name):
    """Every GSU19 monitor metric == its decode-based reimplementation."""
    factory, n = PROTOCOLS[protocol_name]
    engine = ENGINES[engine_name](factory(), n, rng=11)

    def reference_role_census(engine):
        census = {role: 0 for role in Role}
        for state, count in _decoded_items(engine):
            census[state.role] += count
        return census

    def reference_max_leader_drag(engine):
        return max(
            (
                state.drag
                for state, count in _decoded_items(engine)
                if count and state.role == Role.LEADER
            ),
            default=0,
        )

    def reference_min_active_cnt(engine):
        values = [
            state.cnt
            for state, count in _decoded_items(engine)
            if count and is_active_leader(state)
        ]
        return min(values) if values else None

    def reference_drag_census(engine, *, high_only=False):
        census = {}
        for state, count in _decoded_items(engine):
            if state.role != Role.INHIBITOR:
                continue
            if high_only and state.elevation != Elevation.HIGH:
                continue
            census[state.drag] = census.get(state.drag, 0) + count
        return census

    for parallel_time in (0, 4, 30):
        engine.run(parallel_time * n - engine.interactions)
        assert role_census(engine) == reference_role_census(engine)
        assert active_leader_count(engine) == _decode_count_where(
            engine, is_active_leader
        )
        assert alive_leader_count(engine) == _decode_count_where(
            engine, is_alive_leader
        )
        assert uninitialised_count(engine) == _decode_count_where(
            engine, lambda state: state.role in (Role.ZERO, Role.X)
        )
        assert max_leader_drag(engine) == reference_max_leader_drag(engine)
        assert min_active_cnt(engine) == reference_min_active_cnt(engine)
        assert inhibitor_drag_census(engine) == reference_drag_census(engine)
        assert high_inhibitor_census(engine) == reference_drag_census(
            engine, high_only=True
        )


# ----------------------------------------------------------------------
# count_vector contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "engine_cls",
    [SequentialEngine, CountBatchEngine, FastBatchEngine],
    ids=lambda cls: cls.__name__,
)
def test_count_vector_contract(engine_cls):
    """Dense, len == len(encoder), consistent with state_count_items."""
    n = 128
    engine = engine_cls(GSULeaderElection.for_population(n), n, rng=3)
    for _ in range(3):
        counts = engine.count_vector()
        assert counts.shape[0] == len(engine.encoder)
        assert int(counts.sum()) == n
        assert {
            sid: count for sid, count in enumerate(counts.tolist()) if count
        } == dict(engine.state_count_items())
        engine.run(5 * n)


# ----------------------------------------------------------------------
# Compile-once semantics of the table's view cache
# ----------------------------------------------------------------------
def test_view_compiled_once_per_state_id():
    calls = []

    def informed(state):
        calls.append(state)
        return state == "informed"

    view = PredicateView("informed", informed)
    protocol = OneWayEpidemic()
    engine = SequentialEngine(protocol, 64, rng=0)
    assert view.count(engine) == 1
    first = len(calls)
    assert first == len(engine.encoder)  # one evaluation per registered state
    for _ in range(5):
        view.count(engine)
    assert len(calls) == first  # cached: reductions re-evaluate nothing
    # Newly registered states are evaluated lazily, exactly once each.
    before = len(engine.encoder)
    engine.table.encode("mutant")
    assert view.count(engine) == 1
    assert len(calls) == first + (len(engine.encoder) - before)


def test_one_view_serves_many_protocol_instances():
    view = PredicateView("informed", lambda state: state == "informed")
    for seed in range(3):
        engine = CountBatchEngine(OneWayEpidemic(), 100, rng=seed)
        assert view.count(engine) == 1
        engine.run(500)
        assert view.count(engine) == _decode_count_where(
            engine, lambda state: state == "informed"
        )


def test_categorical_view_preserves_declared_category_order():
    view = CategoricalView("role", lambda state: state.role, categories=tuple(Role))
    assert view.categories == list(Role)
    engine = SequentialEngine(GSULeaderElection.for_population(64), 64, rng=1)
    engine.run(20 * 64)
    census = view.census(engine)
    assert set(census) <= set(Role)
    assert sum(census.values()) == 64


def test_simulation_warms_declared_views():
    from repro.engine.simulation import Simulation

    protocol = GSULeaderElection.for_population(128)
    simulation = Simulation(protocol, 128, rng=5, convergence=protocol.convergence())
    table = simulation.engine.table
    for view in simulation.convergence.views:
        assert table._views_filled[view] == len(table.encoder)


def test_coin_level_histogram_view_path_matches_decode_fallback():
    """The default-accessor view fast path == the custom-accessor decode
    loop (forced by passing the same accessors explicitly)."""
    from repro.coins.analysis import coin_level_histogram
    from repro.types import Role

    n = 256
    engine = SequentialEngine(GSULeaderElection.for_population(n), n, rng=9)
    engine.run(30 * n)
    fast = coin_level_histogram(engine, max_level=3)
    slow = coin_level_histogram(
        engine,
        max_level=3,
        is_coin=lambda state: state.role == Role.COIN,
        level_of=lambda state: state.level,
    )
    assert fast == slow
