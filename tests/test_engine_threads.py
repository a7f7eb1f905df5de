"""In-process parallelism: the CPU budget, pooled sweeps, locking.

Two properties are pinned here:

* **Pool invariance** — the sweep scheduler's worker processes produce
  the serial cells exactly.
* **Table thread-safety** — the lazily extending ``TransitionTable``
  structures (delta memo, packed LUT, output maps, view vectors) survive
  concurrent extension from many threads and end up exactly as a serial
  build would.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core.protocol import GSULeaderElection
from repro.engine import parallel
from repro.engine.cpus import available_cpus
from repro.engine.parallel import SweepPoint, run_many
from repro.engine.simulation import run_protocol
from repro.engine.state import StateEncoder
from repro.engine.views import PredicateView
from repro.protocols.slow import SlowLeaderElection


def _slow_factory(n: int) -> SlowLeaderElection:
    return SlowLeaderElection()


# ----------------------------------------------------------------------
# CPU budget resolution (REPRO_MAX_WORKERS)
# ----------------------------------------------------------------------
def test_available_cpus_honours_max_workers_env(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
    assert available_cpus() == 8
    monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
    assert available_cpus() == 3
    # A cap above the affinity count never oversubscribes.
    monkeypatch.setenv("REPRO_MAX_WORKERS", "64")
    assert available_cpus() == 8
    # Garbage and non-positive values are ignored, not raised.
    monkeypatch.setenv("REPRO_MAX_WORKERS", "zero")
    assert available_cpus() == 8
    monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
    assert available_cpus() == 8


def test_sweep_worker_clamp_uses_shared_cpu_budget(monkeypatch):
    # parallel.available_cpus is the cpus.py implementation, so the sweep
    # scheduler's worker clamp honours REPRO_MAX_WORKERS without its own
    # plumbing.
    assert parallel.available_cpus is available_cpus


# ----------------------------------------------------------------------
# Pooled sweeps vs serial
# ----------------------------------------------------------------------
def _cell_signature(points):
    return [
        (p.n, p.seed, p.result.converged, p.result.interactions,
         p.result.parallel_time, sorted(map(repr, p.result.final_counts.items())))
        for p in points
    ]


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_pooled_backends_bit_identical_to_serial(monkeypatch, backend):
    """Serial and 2-process sweeps both equal one plain run per cell."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    points = run_many(
        _slow_factory,
        [16, 32],
        repetitions=2,
        base_seed=3,
        max_parallel_time=1000,
        workers=0 if backend == "serial" else 2,
    )
    fresh = [
        SweepPoint(p.n, p.seed, run_protocol(
            _slow_factory(p.n), p.n, seed=p.seed, max_parallel_time=1000
        ))
        for p in points
    ]
    assert _cell_signature(points) == _cell_signature(fresh)


# ----------------------------------------------------------------------
# TransitionTable under concurrent extension
# ----------------------------------------------------------------------
def _closure_protocol() -> GSULeaderElection:
    # The closure-parameterised GSU19 protocol declares its complete
    # reachable state space (144 states) — a real surface to hammer.
    from repro.core.params import GSUParams

    return GSULeaderElection(GSUParams(n_hint=10**8, gamma=4, phi=1, psi=1))


def test_concurrent_table_extension_hammer():
    """8 threads extending one table agree with a serial build exactly.

    The hammered table is built over a pre-populated encoder, so it keeps
    the closure's id layout but compiles lazily instead of adopting the
    closure's LUT; the reference adopts it."""
    protocol = _closure_protocol()
    table = protocol.compile(encoder=StateEncoder(protocol.canonical_states()))
    assert int(table.packed.max()) == -1
    k = len(table.encoder)
    assert k > 100  # the hammer needs a real state space
    pairs = [
        ((17 * i) % k, (31 * i + 7) % k) for i in range(4 * k)
    ]
    is_leader = PredicateView("hammer-leader", lambda s: protocol.output(s) == "L")
    barrier = threading.Barrier(8)
    errors = []

    def worker(shard: int) -> None:
        try:
            barrier.wait(timeout=30)
            # Overlapping slices: every pair is compiled by >= 2 threads.
            for responder, initiator in pairs[shard::4]:
                table.apply(responder, initiator)
            for responder, initiator in pairs[(shard + 1) % 8 :: 4]:
                table.apply(responder, initiator)
            # Interleave the other lazily extending structures.
            for sid in range(shard, k, 8):
                table.output_of(sid)
            table.view_values(is_leader)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors

    # Every structure must match a fresh serial build over the same pairs.
    reference = _closure_protocol().compile()
    for responder, initiator in pairs:
        assert table.delta[(responder, initiator)] == reference.apply(
            responder, initiator
        )
    packed, capacity = table.packed_view()
    for (responder, initiator), (new_r, new_i) in table.delta.items():
        entry = int(packed[responder * capacity + initiator])
        assert entry == ((new_r << 32) | new_i)
    for sid in range(k):
        assert table.output_of(sid) == reference.output_of(sid)
    values = table.view_values(is_leader)
    for sid in range(k):
        assert values[sid] == is_leader.compile_state(table.encoder.decode(sid))


def test_output_id_array_while_table_grows():
    """An output map read while another thread's pair compile has
    registered a new state but not yet grown the table covers that state.

    The compile is held between registration and growth; the concurrent
    reader must wait for the growth and memoise the new id, never return a
    short array or a ``-1`` entry.
    """
    from repro.engine.protocol import ProtocolSpec

    protocol = ProtocolSpec(
        name="counter",
        initial=0,
        rules=lambda responder, initiator: (max(responder, initiator) + 1, initiator),
        outputs=lambda state: "L" if state % 2 else "F",
    )
    table = protocol.compile()
    for state in range(table.capacity):
        table.encode(state)
    size = table.capacity + 1
    grow = table._grow
    registered, proceed = threading.Event(), threading.Event()

    def held_grow(new_size: int) -> None:
        registered.set()
        assert proceed.wait(timeout=30)
        grow(new_size)

    table._grow = held_grow
    results = []
    compiler = threading.Thread(
        target=table.apply, args=(size - 2, size - 2)
    )
    compiler.start()
    assert registered.wait(timeout=30)
    assert len(table.encoder) == size
    reader = threading.Thread(target=lambda: results.append(table.output_id_array(size)))
    reader.start()
    reader.join(timeout=0.2)
    proceed.set()
    compiler.join(timeout=30)
    reader.join(timeout=30)
    (ids,) = results
    assert ids.shape == (size,)
    expected = [table._symbol_ids[protocol.output(state)] for state in range(size)]
    assert ids.tolist() == expected
    assert int(np.min(ids)) >= 0
