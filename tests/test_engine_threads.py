"""In-process parallelism: the CPU budget, sweep backends, locking.

Two properties are pinned here:

* **Backend invariance** — the sweep scheduler's ``backend="thread"`` /
  ``"process"`` / serial paths produce identical cells and share one store
  key space.
* **Table thread-safety** — the lazily extending ``TransitionTable``
  structures (delta memo, packed LUT, output maps, view vectors) survive
  concurrent extension from many threads and end up exactly as a serial
  build would.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.core.protocol import GSULeaderElection
from repro.engine import parallel
from repro.engine._count_kernel import count_kernel_available
from repro.engine.count_batch import CountBatchEngine
from repro.engine.cpus import available_cpus
from repro.engine.dispatch import releases_gil
from repro.engine.parallel import run_cells, run_many
from repro.engine.state import StateEncoder
from repro.engine.views import PredicateView
from repro.errors import ConfigurationError
from repro.experiments.store import ExperimentStore
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
# Sweep backends: thread vs process vs serial
# ----------------------------------------------------------------------
def _cell_signature(points):
    return [
        (p.n, p.seed, p.result.converged, p.result.interactions,
         p.result.parallel_time, sorted(map(repr, p.result.final_counts.items())))
        for p in points
    ]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_pooled_backends_bit_identical_to_serial(monkeypatch, backend):
    serial = run_many(
        _slow_factory, [16, 32], repetitions=2, base_seed=3, max_parallel_time=1000
    )
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    pooled = run_many(
        _slow_factory,
        [16, 32],
        repetitions=2,
        base_seed=3,
        max_parallel_time=1000,
        workers=2,
        backend=backend,
    )
    assert _cell_signature(pooled) == _cell_signature(serial)


def test_thread_backend_shares_store(monkeypatch, tmp_path):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    store = ExperimentStore(tmp_path)
    first = run_cells(
        _slow_factory, 32, [7, 8, 9], max_parallel_time=1000,
        workers=3, backend="thread", store=store,
    )
    assert store.stored == 3
    again = run_cells(
        _slow_factory, 32, [7, 8, 9], max_parallel_time=1000,
        workers=3, backend="thread", store=store,
    )
    assert [p.extra.get("cached") for p in again] == [True, True, True]
    assert [p.seed for p in again] == [p.seed for p in first]
    assert store.stored == 3


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        run_many(_slow_factory, [16], repetitions=1, backend="fiber")


def test_releases_gil_predicate():
    from repro.engine._ckernel import kernel_available
    from repro.engine.engine import SequentialEngine
    from repro.engine.fast_batch import FastBatchEngine

    assert releases_gil(CountBatchEngine) == count_kernel_available()
    assert not releases_gil(CountBatchEngine, {"kernel": "python"})
    assert releases_gil(FastBatchEngine) == kernel_available()
    assert not releases_gil(FastBatchEngine, {"kernel": "numpy"})
    assert not releases_gil(SequentialEngine)


def test_auto_backend_selection():
    def engines(spec):
        return parallel._resolve_sizes(_slow_factory, {64}, spec).values()

    # Explicit wins unconditionally.
    assert parallel._use_thread_backend("thread", engines(None), {})
    assert not parallel._use_thread_backend("process", engines(None), {})
    # The sequential engine holds the GIL -> auto picks processes.
    assert not parallel._use_thread_backend("auto", engines(None), {})
    # The count-batch kernel engine releases it -> auto picks threads
    # (exactly when the kernel is actually compiled here).
    verdict = parallel._use_thread_backend("auto", engines("countbatch"), {})
    assert verdict == count_kernel_available()
    # Forcing the interpreted kernel flips auto back to processes.
    assert not parallel._use_thread_backend(
        "auto", engines("countbatch"), {"engine_kwargs": {"kernel": "python"}}
    )
    # A size that fails to resolve (it will fail in its worker) -> processes.
    assert not parallel._use_thread_backend("auto", engines("no-such-engine"), {})


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
