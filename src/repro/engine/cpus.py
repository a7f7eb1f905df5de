"""CPU budget for the sweep scheduler's worker pool.

One function answers "how many workers should run here?" for the sweep
scheduler's pools (process *and* thread backends,
:mod:`repro.engine.parallel`), the only parallel layer: every engine runs
one seed on its calling thread.  ``REPRO_MAX_WORKERS`` caps the pool alone
(a shared CI box, a benchmark that must not steal cores from a co-located
service).

It lives apart from :mod:`repro.engine.parallel` so that callers which
only need the count (run stamps, benchmarks) do not import the
simulation/dispatch stack ``parallel`` pulls in.
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
    counts, so CI runners with a CPU quota are not oversubscribed.  A
    garbage, zero or negative cap is ignored rather than raised: the
    variable is read deep inside library calls, where an exception would
    fail innocent sweeps far from the typo.
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
