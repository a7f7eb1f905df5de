"""CPU budgets for the in-process parallelism layer.

One module answers "how many workers/threads should run here?" for every
consumer — the sweep scheduler's worker pools (process *and* thread
backends, :mod:`repro.engine.parallel`) and the threads a replicated count
engine spreads its kernel rows over (:mod:`repro.engine.count_batch`) — so
a single ``REPRO_MAX_WORKERS`` setting caps them all at once (a shared CI
box, a benchmark that must not steal cores from a co-located service).

It lives apart from :mod:`repro.engine.parallel` because the engine layer
needs it too: ``parallel`` imports the simulation/dispatch stack, which the
engines must not import back.
"""

from __future__ import annotations

import os

__all__ = ["available_cpus"]


def available_cpus() -> int:
    """CPUs actually available to this process.

    ``os.sched_getaffinity(0)`` respects container / cgroup CPU masks and
    ``taskset`` restrictions; platforms without it (macOS, Windows) fall
    back to ``os.cpu_count()``.  A ``REPRO_MAX_WORKERS`` environment
    variable lowers the answer further (clamped to the affinity count — it
    is a cap, never a way to oversubscribe).  Used to clamp sweep worker
    counts and as the replicated count engine's kernel thread count, so CI
    runners with a CPU quota are not oversubscribed.  A garbage, zero or
    negative cap is ignored rather than raised: the variable is read deep
    inside library calls, where an exception would fail innocent sweeps far
    from the typo.
    """
    try:
        cpus = len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    try:
        cap = int(os.environ.get("REPRO_MAX_WORKERS", ""))
    except ValueError:
        cap = 0
    if cap >= 1:
        cpus = min(cpus, cap)
    return cpus
