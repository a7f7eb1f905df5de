"""Tests for the compiled transition-table IR and ``protocol.compile()``."""

from __future__ import annotations

import numpy as np
import pytest

from test_engine_layout_invariance import _lazy

from repro.core.protocol import GSULeaderElection
from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.engine.table import TransitionTable
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.exact_majority import ExactMajority
from repro.protocols.slow import SlowLeaderElection


def test_compile_is_cached_per_protocol_instance():
    protocol = OneWayEpidemic()
    table = protocol.compile()
    assert protocol.compile() is table
    # A different instance compiles its own table.
    assert OneWayEpidemic().compile() is not table


def test_canonical_states_are_registered_eagerly():
    table = ApproximateMajority().compile()
    # blank has not appeared in any configuration yet but is registered.
    assert table.encoder.known("blank")
    assert len(table) == 3


@pytest.mark.parametrize(
    "protocol",
    [
        OneWayEpidemic(),
        ApproximateMajority(),
        ExactMajority.for_population(100),
        SlowLeaderElection(),
    ],
    ids=lambda protocol: protocol.name,
)
def test_declared_states_compile_every_pair_at_build(protocol):
    """A table laid out over closed canonical states is complete from the
    start, as a closure table is: all k^2 pairs compiled, no state added."""
    table = protocol.compile()
    k = len(list(protocol.canonical_states()))
    assert len(table) == table.canonical_count == k
    assert table.compiled_pairs == k * k
    packed = table.packed.reshape(table.capacity, table.capacity)
    assert (packed[:k, :k] >= 0).all()


def test_apply_matches_protocol_transition():
    protocol = ApproximateMajority()
    table = protocol.compile()
    encode = table.encode
    decode = table.encoder.decode
    for responder in ("A", "B", "blank"):
        for initiator in ("A", "B", "blank"):
            new_r_id, new_i_id = table.apply(encode(responder), encode(initiator))
            assert (decode(new_r_id), decode(new_i_id)) == protocol.transition(
                responder, initiator
            )
    assert table.compiled_pairs == 9


def test_packed_entries_mirror_delta():
    table = _lazy(OneWayEpidemic()).compile()
    informed = table.encode("informed")
    susceptible = table.encode("susceptible")
    table.apply(susceptible, informed)
    packed = int(table.packed[susceptible * table.capacity + informed])
    assert (packed >> 32, packed & 0xFFFFFFFF) == table.delta[(susceptible, informed)]
    # Un-compiled pairs stay -1.
    assert int(table.packed[informed * table.capacity + susceptible]) == -1


def test_apply_block_fills_misses_and_matches_scalar():
    protocol = _lazy(ApproximateMajority())
    table = protocol.compile()
    ids = [table.encode(s) for s in ("A", "B", "blank")]
    rng = np.random.default_rng(0)
    responders = rng.choice(ids, size=200).astype(np.int64)
    initiators = rng.choice(ids, size=200).astype(np.int64)
    new_r, new_i = table.apply_block(responders, initiators)
    for t in range(200):
        assert (int(new_r[t]), int(new_i[t])) == table.apply(
            int(responders[t]), int(initiators[t])
        )


def test_capacity_grows_beyond_initial():
    # GSU19 with its closure hidden compiles lazily, from the initial
    # capacity up, on a per-agent engine.
    n = 1024
    protocol = _lazy(GSULeaderElection.for_population(n))
    table = protocol.compile()
    engine = FastBatchEngine(protocol, n, rng=1)
    assert engine.table is table
    engine.run(40 * n)
    assert len(table) > 64
    assert table.capacity >= len(table)
    # Growth preserved previously compiled pairs.
    for (r, i), expected in list(table.delta.items())[:50]:
        packed = int(table.packed[r * table.capacity + i])
        assert (packed >> 32, packed & 0xFFFFFFFF) == expected


def test_output_maps_and_vectorised_aggregation():
    protocol = ApproximateMajority()
    table = protocol.compile()
    a = table.encode("A")
    b = table.encode("B")
    blank = table.encode("blank")
    assert table.output_of(a) == protocol.output("A")
    counts = np.zeros(len(table), dtype=np.int64)
    counts[a], counts[b], counts[blank] = 5, 3, 2
    aggregated = table.aggregate_counts(counts)
    expected = {}
    for state, count in (("A", 5), ("B", 3), ("blank", 2)):
        symbol = protocol.output(state)
        expected[symbol] = expected.get(symbol, 0) + count
    assert aggregated == expected
    ids = table.output_id_array(len(table))
    assert np.all(ids >= 0)
    symbols = table.symbols
    assert [symbols[int(ids[sid])] for sid in (a, b, blank)] == [
        protocol.output(s) for s in ("A", "B", "blank")
    ]


def test_output_id_array_covers_states_registered_past_capacity():
    """A pair compile that registers a state past the packed capacity grows
    the output map with it: the map then covers the new id, with no ``-1``."""
    from repro.engine.protocol import ProtocolSpec

    protocol = ProtocolSpec(
        name="counter",
        initial=0,
        rules=lambda responder, initiator: (max(responder, initiator) + 1, initiator),
        outputs=lambda state: "L" if state % 2 else "F",
    )
    table = protocol.compile()
    capacity = table.capacity
    for state in range(capacity):
        table.encode(state)
    assert table.output_id_array(capacity).min() >= 0
    table.apply(capacity - 1, capacity - 1)
    assert len(table) == capacity + 1 and table.capacity > capacity
    ids = table.output_id_array(capacity + 1)
    symbols = table.symbols
    assert [symbols[i] for i in ids.tolist()] == [
        protocol.output(state) for state in range(capacity + 1)
    ]


def test_engines_share_one_table_per_protocol_instance():
    protocol = OneWayEpidemic()
    engines = [
        SequentialEngine(protocol, 64, rng=0),
        FastBatchEngine(protocol, 64, rng=2),
        CountBatchEngine(protocol, 64, rng=3),
    ]
    tables = {id(engine.table) for engine in engines}
    assert len(tables) == 1
    assert engines[0].table is protocol.compile()


def test_warm_table_serves_a_second_engine():
    """Transitions compiled by one engine are hits for the next engine on the
    same protocol instance, and the warm engine still simulates correctly."""
    protocol = OneWayEpidemic()
    first = SequentialEngine(protocol, 128, rng=0)
    first.run(5_000)
    compiled = protocol.compile().compiled_pairs
    assert compiled > 0
    second = SequentialEngine(protocol, 128, rng=1)
    second.run(5_000)
    assert protocol.compile().compiled_pairs == compiled  # nothing new to compile
    assert sum(second.state_counts().values()) == 128
    # Per-run statistics stay per-run despite the shared table.
    assert second.interactions == 5_000
    assert second.states_ever_occupied == 2


def test_ever_occupied_is_per_run_even_with_shared_table():
    """A warm table must not leak occupancy: a fresh engine whose run never
    leaves the initial state reports only the states it actually occupied."""
    protocol = OneWayEpidemic(sources=2)
    warm = SequentialEngine(protocol, 64, rng=0)
    warm.run(10_000)  # compiles every pair, occupies both states
    assert warm.states_ever_occupied == 2
    # n=2 with sources=2: both agents informed from the start, so the run
    # never occupies 'susceptible' even though the shared table knows
    # transitions involving it.
    fresh = SequentialEngine(protocol, 2, rng=2)
    assert fresh.states_ever_occupied == 1
    fresh.run(100)
    assert fresh.states_ever_occupied == 1
