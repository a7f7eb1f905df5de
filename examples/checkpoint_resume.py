#!/usr/bin/env python3
"""Interrupt-and-resume of a large GSU19 leader-election run.

Demonstrates the PR 4 run-persistence subsystem end to end at the headline
scale (``n = 10^7`` by default):

1. a **reference** run executes the full parallel-time budget in one go;
2. an **interrupted** run executes only half the budget while writing
   atomic checkpoints (simulating a crash half-way);
3. the **resumed** run restores the checkpoint into a fresh protocol
   instance — exactly what a restarted process would do — and finishes the
   original budget.

Because engine snapshots are bit-exact (configuration, interaction counter,
state-identifier layout and full RNG state, pre-drawn buffers included),
the resumed run reproduces the reference run *byte-for-byte*; the script
verifies the final configurations are identical and prints a digest of
both trajectories' endpoints.

The O(k) configuration-space engine makes the checkpoints tiny: at the
default size the checkpoint is 3.8 KB (3,829 bytes: the 41 states
discovered so far, the counts of the occupied ones and the RNG state), not
the 40 MB a per-agent array would weigh at ``10^7``.  A closure-registered
run (``n_hint`` from ``3*10^7``) stores the closure's digest instead of
its states: about 1.9 KB per checkpoint in ``perfbench``'s
``leader-count`` workload (1,348 closure states, about 68 occupied).

Run it (a couple of minutes at the default size)::

    PYTHONPATH=src python examples/checkpoint_resume.py

or scaled down for a quick look::

    PYTHONPATH=src python examples/checkpoint_resume.py --n 100000 --budget 8
"""

from __future__ import annotations

import argparse
import hashlib
import tempfile
import time
from pathlib import Path

from repro.core.protocol import GSULeaderElection
from repro.engine import run_protocol


def counts_digest(result) -> str:
    """SHA-256 over the sorted final configuration of a run."""
    payload = sorted((repr(state), count) for state, count in result.final_counts.items())
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10**7, help="population size")
    parser.add_argument(
        "--budget", type=float, default=32.0,
        help="total parallel-time budget (the crash happens at half of it)",
    )
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument(
        "--engine", default="countbatch",
        help="engine to run on (countbatch: O(k) memory, tiny checkpoints)",
    )
    args = parser.parse_args()

    n, budget, seed = args.n, args.budget, args.seed
    checkpoint = Path(tempfile.mkdtemp(prefix="repro-ckpt-")) / "gsu19.ckpt"
    common = dict(seed=seed, engine_cls=args.engine)

    print(f"GSU19 leader election, n={n:.0e}, engine={args.engine}, "
          f"budget={budget} parallel time\n")

    started = time.perf_counter()
    reference = run_protocol(
        GSULeaderElection.for_population(n), n,
        max_parallel_time=budget, **common,
    )
    print(f"[reference  ] {reference.interactions} interactions in one go "
          f"({time.perf_counter() - started:.1f}s), "
          f"digest {counts_digest(reference)}")

    # --- the run that "crashes" half-way --------------------------------
    interrupted = run_protocol(
        GSULeaderElection.for_population(n), n,
        max_parallel_time=budget / 2,          # the crash
        checkpoint_every=n,                    # checkpoint once per time unit
        checkpoint_path=checkpoint,
        **common,
    )
    size = checkpoint.stat().st_size
    print(f"[interrupted] stopped at {interrupted.interactions} interactions; "
          f"checkpoint on disk: {size / 1024:.1f} KiB")

    # --- the restarted process ------------------------------------------
    # Fresh protocol instance, same command line plus resume=True: the
    # engine class, seed bookkeeping and full engine state come from the
    # checkpoint, and the budget is the TOTAL budget, so the resumed run
    # stops exactly where the reference did.
    resumed = run_protocol(
        GSULeaderElection.for_population(n), n,
        max_parallel_time=budget,
        checkpoint_path=checkpoint,
        resume=True,
        **common,
    )
    print(f"[resumed    ] finished at {resumed.interactions} interactions, "
          f"digest {counts_digest(resumed)}")

    assert resumed.interactions == reference.interactions
    assert resumed.final_counts == reference.final_counts
    assert resumed.final_outputs == reference.final_outputs
    print("\ninterrupt + resume == uninterrupted run, byte for byte  ✓")
    print(f"(leaders at the end: {reference.leader_count}, "
          f"converged: {reference.converged})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
