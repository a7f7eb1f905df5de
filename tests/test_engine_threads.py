"""The CPU budget and pool invariance.

Engines, tables and protocols belong to one thread; the unit of
parallelism is the process.  Two properties are pinned here:

* **CPU budget** — ``available_cpus`` honours ``REPRO_MAX_WORKERS`` and
  the sweep scheduler clamps its workers through it.
* **Pool invariance** — the sweep scheduler's worker processes produce
  the serial cells exactly.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import parallel
from repro.engine.cpus import available_cpus
from repro.engine.parallel import SweepPoint, run_many
from repro.engine.simulation import run_protocol
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
