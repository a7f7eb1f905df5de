#!/usr/bin/env python
"""Majority / consensus workloads on the same simulation substrate.

The paper motivates population protocols through chemical-reaction-network
style computations such as majority and consensus.  This example runs the
classic 3-state approximate-majority protocol and the 4-state exact-majority
protocol on the library's engines, showing how quickly the approximate
protocol converges (``O(log n)`` parallel time) and that the exact protocol
always reports the true initial majority — including the razor-thin case the
approximate protocol can get wrong.

Run with::

    python examples/majority_consensus.py [population_size]
"""

from __future__ import annotations

import sys

from repro.engine import CountBatchEngine, SequentialEngine
from repro.engine.recorder import OutputCountRecorder
from repro.protocols import ApproximateMajority, ExactMajority
from repro.viz.ascii import sparkline


def run_approximate(n: int) -> None:
    protocol = ApproximateMajority(initial_a_fraction=0.6)
    engine = SequentialEngine(protocol, n, rng=2)
    recorder = OutputCountRecorder()
    recorder.record(engine)
    while not protocol.consensus_reached(engine.counts_by_output()):
        engine.run_parallel_time(1)
        recorder.record(engine)
        if engine.parallel_time > 500:
            break
    a_series = [count for _, count in recorder.series_for("A")]
    print(f"approximate majority (60/40 split), n={n}:")
    print(f"  opinion A over time: {sparkline(a_series[:160])}")
    print(
        f"  consensus after {engine.parallel_time:.0f} parallel time, "
        f"outputs = {engine.counts_by_output()}"
    )


def run_exact(n: int) -> None:
    # A majority of exactly two tokens: approximate majority may flip this,
    # the 4-state exact protocol never does.
    a_count = n // 2 + 1
    protocol = ExactMajority(initial_a=a_count, initial_b=n - a_count)
    engine = CountBatchEngine(protocol, n, rng=3)
    budget_parallel_time = 4000
    while True:
        engine.run_parallel_time(20)
        outputs = engine.counts_by_output()
        verdict = protocol.majority_output(outputs)
        strong_minority = [
            count
            for state, count in engine.state_counts().items()
            if state in ("A", "B")
        ]
        if verdict != "tie" and len(strong_minority) <= 1:
            break
        if engine.parallel_time > budget_parallel_time:
            break
    print(f"\nexact majority (majority of one), n={n}:")
    print(
        f"  verdict = {verdict!r} after {engine.parallel_time:.0f} parallel time "
        f"(true majority is 'A')"
    )


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    run_approximate(n)
    run_exact(min(n, 256))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
