"""repro — reproduction of GSU19 leader election in population protocols.

This package reproduces, as a standalone Python library, the system described
in *"Almost Logarithmic-Time Space Optimal Leader Election in Population
Protocols"* (Gąsieniec, Stachowiak, Uznański; SPAA 2019): an
``O(log n · log log n)`` expected-time, ``O(log log n)``-state leader-election
population protocol, together with every substrate it relies on (random
scheduler simulation engines, junta-driven phase clocks, assorted synthetic
coins, inhibitor-driven drag counters) and the baseline protocols it is
compared against.

Quick start::

    from repro import GSULeaderElection, run_protocol

    n = 1 << 10
    protocol = GSULeaderElection.for_population(n)
    result = run_protocol(protocol, n, seed=7, max_parallel_time=4000)
    print(result.summary())          # exactly one leader, parallel time, states used

See ``README.md`` for the architecture overview, ``DESIGN.md`` for the
system inventory and ``EXPERIMENTS.md`` for the paper-versus-measured record.
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.engine import (
    PopulationProtocol,
    RunResult,
    SequentialEngine,
    Simulation,
    run_many,
    run_protocol,
)
from repro.core import GSULeaderElection, GSUParams
from repro.protocols import (
    ApproximateMajority,
    GS18LeaderElection,
    LotteryLeaderElection,
    SlowLeaderElection,
)

__all__ = [
    "__version__",
    "PopulationProtocol",
    "SequentialEngine",
    "Simulation",
    "RunResult",
    "run_protocol",
    "run_many",
    "GSULeaderElection",
    "GSUParams",
    "SlowLeaderElection",
    "LotteryLeaderElection",
    "GS18LeaderElection",
    "ApproximateMajority",
]
