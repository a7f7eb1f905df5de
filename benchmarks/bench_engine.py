"""Engine ablation benchmark (design-choice ablation from DESIGN.md).

Compares the exact simulation engines on the same workloads:

* the exact per-agent :class:`SequentialEngine` (reference),
* the exact-in-distribution configuration-space :class:`CountBatchEngine`,
* the exact collision-aware batched :class:`FastBatchEngine`.

Two entry points:

* ``pytest benchmarks/bench_engine.py --benchmark-only`` — the
  pytest-benchmark suite below (small workloads, minutes-scale); the
  session hook in ``conftest.py`` folds the stats into ``BENCH_engine.json``.
* ``python benchmarks/bench_engine.py`` — the full throughput ablation
  across all engines at ``n ∈ {10^4, 10^5, 10^6, 10^7}`` on the one-way
  epidemic, plus the GSU19 count-space section (exact engines at
  ``n ∈ {10^6, 10^7}`` on the headline protocol, reachable closure
  registered — the numbers behind the dispatcher's occupied-frontier cost
  model; ``countbatch`` through the compiled count kernel and
  ``countbatch-python`` on the portable path, plus a kernel-only
  ``countbatch`` cell at ``n = 10^9``); writes the machine-readable
  ``BENCH_engine.json`` at the repo root so the performance trajectory is
  tracked PR over PR.  The GSU19
  section pays the one-time ~1 s closure BFS; skip it with
  ``--no-gsu19``.  ``--observed`` adds the observation-pipeline section:
  observed-vs-unobserved GSU19 throughput with the ``SingleLeader``
  predicate and a role-census recorder attached at a dense check cadence
  (the compiled-view acceptance bound is observed <= 1.25x unobserved at
  ``n = 10^7`` on the count-batch engine).  ``--sweep`` adds the sweep
  scheduler section: 32 replica-vectorised GSU19 runs against 32 scalar
  runs at ``n = 10^6`` (wall-clock ratio scalar / replica) plus the sweep
  scheduler's serial-vs-workers wall clock.  ``--topology`` adds the
  scheduler section: ``pair_block`` throughput of every interaction
  topology (complete / cycle / 2D torus / random 4-regular / power-law)
  at ``n = 10^6`` — the scenario axis's randomness hot path; combine
  ``--no-epidemic --no-gsu19 --topology`` to merge just that section
  into the JSON without re-running (and overwriting) the full-size
  ablation.  ``--approx`` adds the approximate-tier section: mean-field
  and tau-leap wall clock on GSU19 at ``n ∈ {10^6, 10^8, 10^10}``
  against a gated exact ``countbatch`` comparator, plus the measured
  tau-leap-vs-sequential KS statistics at ``n = 128`` (the quantities
  ``tests/test_engine_approx.py`` bounds).

The interesting outputs are the relative throughputs (interactions per
second): the batched exact engine beats the sequential reference by a
growing factor as ``n`` grows (its collision-free runs lengthen like
``sqrt(n)``) until ``n ~ 3 * 10^6``, where the count-batch engine overtakes
even the C kernel — its O(k^2) hypergeometric updates process ``Θ(sqrt(n))``
interactions each while the per-agent array has long fallen out of cache.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Type

import pytest

from repro.core.protocol import GSULeaderElection
from repro.engine._ckernel import kernel_available
from repro.engine._count_kernel import count_kernel_available
from repro.engine.base import BaseEngine
from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic

_N = 1024
_INTERACTIONS = 50 * _N  # 50 parallel-time units

def _fastbatch_numpy(protocol, n, rng=None) -> FastBatchEngine:
    """FastBatchEngine with the C kernel disabled (portable NumPy path)."""
    return FastBatchEngine(protocol, n, rng, kernel="numpy")


_fastbatch_numpy.exact = True  # type: ignore[attr-defined]


def _countbatch_python(protocol, n, rng=None) -> CountBatchEngine:
    """CountBatchEngine pinned to the pure-Python path (count kernel off)."""
    return CountBatchEngine(protocol, n, rng, kernel="python")


_countbatch_python.exact = True  # type: ignore[attr-defined]

#: All engines, in ablation order (the sequential reference first).  The
#: batched engine appears twice: once with whatever hot path dispatch would
#: use (the C kernel where a compiler exists) and once pinned to the NumPy
#: wave schedule, so the JSON tracks both trajectories.
ABLATION_ENGINES: Dict[str, Type[BaseEngine]] = {
    "sequential": SequentialEngine,
    "countbatch": CountBatchEngine,
    "fastbatch": FastBatchEngine,
    "fastbatch-numpy": _fastbatch_numpy,  # type: ignore[dict-item]
}

#: Ablation population sizes (the tentpole's target range; 10^7 is where the
#: configuration-space engine overtakes the C kernel).
ABLATION_SIZES = (10**4, 10**5, 10**6, 10**7)

_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


# ----------------------------------------------------------------------
# pytest-benchmark suite
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "engine_cls",
    [SequentialEngine, CountBatchEngine, FastBatchEngine],
    ids=lambda c: c.__name__,
)
def test_bench_majority_engines(benchmark, engine_cls):
    """Throughput of each engine on the 3-state approximate-majority workload.

    Fresh protocol per round: the compiled transition table is cached per
    protocol instance, so reusing one would time a pre-warmed table after
    the first round."""

    def kernel():
        engine = engine_cls(ApproximateMajority(initial_a_fraction=0.7), _N, rng=1)
        engine.run(_INTERACTIONS)
        return engine

    engine = benchmark(kernel)
    assert sum(count for _, count in engine.state_count_items()) == _N


@pytest.mark.parametrize(
    "engine_cls",
    [SequentialEngine, FastBatchEngine],
    ids=lambda c: c.__name__,
)
def test_bench_gsu_engines(benchmark, engine_cls):
    """Throughput of the exact engines on the GSU19 protocol (large state
    space; tiny populations favour the per-agent engine).  Fresh protocol
    per round — see test_bench_majority_engines."""

    def kernel():
        engine = engine_cls(GSULeaderElection.for_population(_N), _N, rng=1)
        engine.run(_INTERACTIONS)
        return engine

    engine = benchmark.pedantic(kernel, iterations=1, rounds=2)
    assert sum(count for _, count in engine.state_count_items()) == _N


def test_bench_transition_cache_effectiveness(benchmark):
    """The shared compiled transition table is the engines' key optimisation:
    after a warm-up run its hit rate should be very high (new compiled pairs
    per interaction should be tiny).  Fresh protocol per round: the table is
    cached per protocol instance, so reusing one would measure a pre-warmed
    table."""

    def kernel():
        engine = SequentialEngine(GSULeaderElection.for_population(_N), _N, rng=2)
        engine.run(20 * _N)
        warm_entries = engine.table.compiled_pairs
        engine.run(20 * _N)
        return warm_entries, engine.table.compiled_pairs, engine

    warm, total, engine = benchmark.pedantic(kernel, iterations=1, rounds=2)
    new_entries = total - warm
    assert new_entries < 20 * _N * 0.2, "cache miss rate should be far below 20%"


def test_bench_fastbatch_epidemic_large_n(benchmark):
    """The tentpole workload: exact batching at a large population.  Not a
    cross-engine comparison (that is the ablation below) — this pins the
    fast-batch engine's own throughput trajectory."""
    n = 10**5

    def kernel():
        engine = FastBatchEngine(OneWayEpidemic(), n, rng=1)
        engine.run(10 * n)
        return engine

    engine = benchmark.pedantic(kernel, iterations=1, rounds=3)
    assert sum(count for _, count in engine.state_count_items()) == n


# ----------------------------------------------------------------------
# Standalone throughput ablation
# ----------------------------------------------------------------------
def _time_run(
    engine_cls: Type[BaseEngine], n: int, interactions: int
) -> tuple[float, float]:
    """``(construction seconds, run seconds)`` for a fresh engine.

    Construction (building the n-agent population) is reported separately:
    it is a one-time cost that would otherwise dominate short runs at
    ``n = 10^6`` and hide the engines' steady-state throughput.
    """
    start = time.perf_counter()
    engine = engine_cls(OneWayEpidemic(), n, rng=1)
    constructed = time.perf_counter()
    engine.run(interactions)
    return constructed - start, time.perf_counter() - constructed


def run_ablation(
    sizes: Sequence[int] = ABLATION_SIZES,
    rounds: int = 5,
    base_interactions: int = 4_000_000,
) -> dict:
    """Measure every engine's epidemic throughput at every population size.

    Each (engine, n) cell runs ``rounds`` times from a fresh engine; the
    headline throughput uses the *median* round (robust against scheduler
    noise in either direction — min-of-rounds systematically flatters
    whichever engine got the luckiest round), with the best round recorded
    alongside.  Rounds are interleaved across engines (round-robin) so that
    drifting machine speed — CPU frequency scaling, noisy neighbours —
    lands on every engine instead of skewing whichever one happened to own
    that time window; the speedup ratios are much more stable for it.
    Returns the machine-readable document that ``main`` writes to
    ``BENCH_engine.json``.
    """
    results: List[dict] = []
    for n in sizes:
        budgets = {
            name: max(10_000, min(4 * n, base_interactions))
            for name in ABLATION_ENGINES
        }
        cell_timings: Dict[str, List[tuple]] = {name: [] for name in ABLATION_ENGINES}
        for _ in range(rounds):
            for name, engine_cls in ABLATION_ENGINES.items():
                cell_timings[name].append(_time_run(engine_cls, n, budgets[name]))
        for name, engine_cls in ABLATION_ENGINES.items():
            interactions = budgets[name]
            timings = cell_timings[name]
            run_seconds = median(seconds for _, seconds in timings)
            results.append(
                {
                    "engine": name,
                    "exact": bool(engine_cls.exact),
                    "n": n,
                    "interactions": interactions,
                    "median_construct_seconds": median(s for s, _ in timings),
                    "median_run_seconds": run_seconds,
                    "best_run_seconds": min(seconds for _, seconds in timings),
                    "throughput_per_second": interactions / run_seconds,
                }
            )
    throughput = {
        (record["engine"], record["n"]): record["throughput_per_second"]
        for record in results
    }
    speedups = {
        str(n): {
            name: throughput[(name, n)] / throughput[("sequential", n)]
            for name in ABLATION_ENGINES
            if name != "sequential"
        }
        for n in sizes
    }
    return {
        "schema": "bench-engine-ablation/v1",
        "workload": {
            "protocol": "one-way-epidemic",
            "metric": "interactions per second (median of rounds)",
            "rounds": rounds,
            # Disambiguates the 'fastbatch' row across machines: without a C
            # compiler it runs the NumPy path and duplicates 'fastbatch-numpy'.
            "c_kernel_available": kernel_available(),
        },
        "results": results,
        "speedup_vs_sequential": speedups,
    }


#: Exact engines compared on the GSU19 count-space section.
_GSU19_ENGINES: Dict[str, Type[BaseEngine]] = {
    "sequential": SequentialEngine,
    "countbatch": CountBatchEngine,
    "countbatch-python": _countbatch_python,  # type: ignore[dict-item]
    "fastbatch": FastBatchEngine,
    "fastbatch-numpy": _fastbatch_numpy,  # type: ignore[dict-item]
}

#: GSU19 section sizes: 10^6 (all per-agent engines comfortable) and 10^7
#: (the headline tier's fast-batch point; 10^8 — where auto forces the
#: count engine — is a day-scale run and is documented rather than timed).
#: The ``countbatch`` row runs the compiled count kernel where available
#: and ``countbatch-python`` pins the portable path, so the JSON tracks the
#: kernel's speedup PR over PR.
_GSU19_SIZES = (10**6, 10**7)

#: Count-space-only sizes: past ~10^8 the per-agent engines need gigabytes
#: and minutes-scale construction, and the Python count path's 2n-interaction
#: warm-up alone would take minutes — only the kernel-backed ``countbatch``
#: row is timed there (the tier the ``extreme`` preset scales from).
_GSU19_KERNEL_SIZES = (10**9,)


def _gsu19_at_scale(n: int) -> GSULeaderElection:
    """GSU19 with the calibration for ``n`` and its closure declared.

    ``n_hint`` is floored at the closure threshold so even the ``10^6``
    cell registers the reachable closure (``n_hint`` is validation-only —
    the dynamics depend on ``(gamma, phi, psi)`` alone, which are derived
    from the *real* ``n``): the section measures the count-space
    configuration every engine sees in the headline tier.
    """
    from repro.core.params import GSUParams
    from repro.core.protocol import CLOSURE_MIN_N_HINT

    base = GSUParams.from_population_size(n)
    return GSULeaderElection(
        GSUParams(
            n_hint=max(n, CLOSURE_MIN_N_HINT),
            gamma=base.gamma,
            phi=base.phi,
            psi=base.psi,
        )
    )


def run_gsu19_ablation(
    sizes: Sequence[int] = _GSU19_SIZES,
    rounds: int = 3,
    base_interactions: int = 4_000_000,
    kernel_sizes: Sequence[int] = (),
) -> dict:
    """Measure the exact engines on the headline GSU19 protocol.

    The protocol instances are built at count-batch scale, so the reachable
    closure (1,789 states at this calibration) is computed once (cached per
    calibration) and registered with every engine's table.  Each engine
    first *warms* the configuration for two parallel-time units from a
    fresh engine before the timed window — GSU19's occupied frontier grows
    from 1 to dozens of states over the first rounds and the steady-state
    frontier is what the dispatcher's cost model is calibrated against.

    ``kernel_sizes`` adds count-space-only cells where just the
    kernel-backed ``countbatch`` engine is timed (see
    ``_GSU19_KERNEL_SIZES``); the 2n-interaction warm-up alone makes every
    other engine impractical there.
    """
    results: List[dict] = []
    factory = _gsu19_at_scale
    cells = [(n, _GSU19_ENGINES) for n in sizes]
    cells += [(n, {"countbatch": CountBatchEngine}) for n in kernel_sizes]
    for n, engines in cells:
        factory(n).reachable_state_closure()  # one-time BFS outside timings
        budget = min(4 * n, base_interactions)
        warmup = 2 * n
        for name, engine_cls in engines.items():
            constructs: List[float] = []
            run_seconds: List[float] = []
            occupied = 0
            for _ in range(rounds):
                start = time.perf_counter()
                engine = engine_cls(factory(n), n, rng=1)
                constructed = time.perf_counter()
                engine.run(warmup)
                warmed = time.perf_counter()
                engine.run(budget)
                finished = time.perf_counter()
                constructs.append(constructed - start)
                run_seconds.append(finished - warmed)
                occupied = len(engine.state_count_items())
            seconds = median(run_seconds)
            results.append(
                {
                    "engine": name,
                    "n": n,
                    "interactions": budget,
                    "median_construct_seconds": median(constructs),
                    "median_run_seconds": seconds,
                    "best_run_seconds": min(run_seconds),
                    "throughput_per_second": budget / seconds,
                    "occupied_states": occupied,
                }
            )
    return {
        "gsu19": {
            "schema": "bench-engine-gsu19/v1",
            "workload": {
                "protocol": "gsu19-leader-election",
                "metric": "interactions per second (median of rounds, "
                "after a 2-parallel-time warm-up)",
                "rounds": rounds,
                "c_kernel_available": kernel_available(),
                "count_kernel_available": count_kernel_available(),
                "note": (
                    "reachable closure registered (computed once per "
                    "calibration); occupied_states is the frontier at the "
                    "end of the timed window — the quantity the auto "
                    "dispatcher's count-batch cost model keys on; "
                    "'countbatch' runs the compiled count kernel where "
                    "count_kernel_available, 'countbatch-python' pins the "
                    "portable path"
                ),
            },
            "results": results,
        }
    }


#: Observed-throughput section sizes (the acceptance point is 10^7; 10^6 is
#: the weekly-CI smoke point).
_OBSERVED_SIZES = (10**6, 10**7)

#: Check cadence of the observed runs: one convergence check (predicate +
#: recorder) per ``n / _OBSERVED_CHECK_DIVISOR`` interactions — a far denser
#: cadence than the driver's default of one per parallel-time unit, so the
#: measured overhead bounds any realistic observation schedule.
_OBSERVED_CHECK_DIVISOR = 100


def run_observed_ablation(
    sizes: Sequence[int] = _OBSERVED_SIZES,
    rounds: int = 3,
    base_interactions: int = 4_000_000,
) -> dict:
    """Observed-vs-unobserved GSU19 throughput (the observation pipeline's
    acceptance measurement).

    The *observed* run attaches the tentpole observation configuration —
    the protocol's ``SingleLeader`` convergence predicate (with its
    compiled uninitialised-view side condition) plus a
    ``RoleCensusRecorder`` — checked every ``n / 100`` interactions; the
    *unobserved* run executes the same interactions with no checks at all.
    Both share the warm-up and budget protocol of the GSU19 section.  The
    headline number is ``ratio`` = observed / unobserved median run
    seconds; the acceptance bound for the compiled observation pipeline is
    ``ratio <= 1.25`` at ``n = 10^7`` on the count-batch engine.
    """
    from repro.core.monitor import RoleCensusRecorder

    results: List[dict] = []
    factory = _gsu19_at_scale
    for n in sizes:
        factory(n).reachable_state_closure()  # one-time BFS outside timings
        budget = min(4 * n, base_interactions)
        warmup = 2 * n
        check_every = max(1, n // _OBSERVED_CHECK_DIVISOR)
        for name in ("countbatch", "fastbatch"):
            engine_cls = _GSU19_ENGINES[name]
            unobserved_seconds: List[float] = []
            observed_seconds: List[float] = []
            checks = 0
            converged = False
            observed_interactions = 0
            for _ in range(rounds):
                engine = engine_cls(factory(n), n, rng=1)
                engine.run(warmup)
                start = time.perf_counter()
                engine.run(budget)
                unobserved_seconds.append(time.perf_counter() - start)

                protocol = factory(n)
                engine = engine_cls(protocol, n, rng=1)
                predicate = protocol.convergence()
                recorder = RoleCensusRecorder()
                for view in predicate.views + recorder.views:
                    engine.table.view_values(view)  # what Simulation warms
                engine.run(warmup)
                start = time.perf_counter()
                converged = engine.run_until(
                    predicate,
                    max_interactions=budget,
                    check_every=check_every,
                    on_check=recorder.record,
                )
                observed_seconds.append(time.perf_counter() - start)
                checks = len(recorder.times)
                observed_interactions = engine.interactions - warmup
            if converged:
                # The ratio compares equal interaction workloads; an early
                # convergence (possible only if a future calibration change
                # collapses the election into the window) would make it
                # meaningless, so flag it loudly instead of recording a
                # vacuous pass.
                print(
                    f"observed {name} n={n}: CONVERGED after "
                    f"{observed_interactions}/{budget} interactions - "
                    "ratio compares unequal workloads",
                    file=sys.stderr,
                )
            unobserved = median(unobserved_seconds)
            observed = median(observed_seconds)
            results.append(
                {
                    "engine": name,
                    "n": n,
                    "interactions": budget,
                    "observed_interactions": observed_interactions,
                    "converged": converged,
                    "check_every": check_every,
                    "checks": checks,
                    "median_unobserved_seconds": unobserved,
                    "median_observed_seconds": observed,
                    "ratio_observed_over_unobserved": observed / unobserved,
                }
            )
    return {
        "observed": {
            "schema": "bench-engine-observed/v1",
            "workload": {
                "protocol": "gsu19-leader-election",
                "observation": (
                    "SingleLeader convergence (uninitialised-view side "
                    "condition) + RoleCensusRecorder, one check per n/100 "
                    "interactions"
                ),
                "metric": (
                    "median run seconds over rounds, after a 2-parallel-time "
                    "warm-up; ratio = observed / unobserved"
                ),
                "rounds": rounds,
                "c_kernel_available": kernel_available(),
                "acceptance": "ratio <= 1.25 at n = 10^7 on countbatch",
            },
            "results": results,
        }
    }


#: Scheduler/topology section: the five PairScheduler implementations drawing
#: ordered interaction pairs at a fast-batch-scale population.  ``pair_block``
#: is the randomness hot path of the sequential and fast-batch engines, so a
#: topology that draws pairs much slower than the complete-graph sampler
#: bounds how much a scenario run can cost before any dynamics execute.
_TOPOLOGY_N = 10**6
_TOPOLOGY_BLOCK = 10**5
_TOPOLOGY_PAIRS = 4_000_000


def _topology_schedulers():
    """Name → ``factory(n, rng)`` for every scheduler kind (lazy import so
    the pytest-benchmark suite does not pay for it)."""
    from repro.engine.scheduler import (
        CycleScheduler,
        Grid2DScheduler,
        PairSampler,
        PowerLawScheduler,
        RandomRegularScheduler,
    )

    return {
        "complete": lambda n, rng: PairSampler(n, rng),
        "cycle": lambda n, rng: CycleScheduler(n, rng),
        "grid2d": lambda n, rng: Grid2DScheduler(n, rng),
        "random-regular-4": lambda n, rng: RandomRegularScheduler(n, rng, degree=4),
        "powerlaw": lambda n, rng: PowerLawScheduler(n, rng, alpha=1.0),
    }


def run_topology_ablation(
    n: int = _TOPOLOGY_N,
    rounds: int = 5,
    pairs: int = _TOPOLOGY_PAIRS,
    block: int = _TOPOLOGY_BLOCK,
) -> dict:
    """Measure ``pair_block`` throughput for every scheduler kind.

    Construction is timed separately — the random d-regular scheduler
    builds its edge list up front (d/2 Hamiltonian cycles) and the
    power-law scheduler builds its weight CDF, both one-time costs that
    would otherwise hide the steady-state draw rate.  Rounds are
    interleaved round-robin across kinds for the same reason as
    :func:`run_ablation`.
    """
    schedulers = _topology_schedulers()
    blocks = max(1, pairs // block)
    drawn = blocks * block
    timings: Dict[str, List[tuple]] = {name: [] for name in schedulers}
    for _ in range(rounds):
        for name, factory in schedulers.items():
            start = time.perf_counter()
            scheduler = factory(n, 1)
            constructed = time.perf_counter()
            for _ in range(blocks):
                scheduler.pair_block(block)
            finished = time.perf_counter()
            timings[name].append((constructed - start, finished - constructed))
    results: List[dict] = []
    for name in schedulers:
        draw_seconds = median(seconds for _, seconds in timings[name])
        results.append(
            {
                "scheduler": name,
                "n": n,
                "pairs": drawn,
                "block": block,
                "median_construct_seconds": median(s for s, _ in timings[name]),
                "median_draw_seconds": draw_seconds,
                "best_draw_seconds": min(s for _, s in timings[name]),
                "pairs_per_second": drawn / draw_seconds,
            }
        )
    complete_rate = next(
        r["pairs_per_second"] for r in results if r["scheduler"] == "complete"
    )
    return {
        "topology": {
            "schema": "bench-engine-topology/v1",
            "workload": {
                "metric": (
                    "ordered pairs drawn per second via pair_block "
                    f"(median of rounds, {block}-pair blocks)"
                ),
                "n": n,
                "rounds": rounds,
                "note": (
                    "pair_block is the scenario axis's randomness hot path; "
                    "construction (edge list / weight CDF) reported "
                    "separately as a one-time cost"
                ),
            },
            "results": results,
            "slowdown_vs_complete": {
                record["scheduler"]: complete_rate / record["pairs_per_second"]
                for record in results
                if record["scheduler"] != "complete"
            },
        }
    }


#: Sweep section workload: the headline closure calibration (k = 1,789
#: states, one shared 25.6 MB packed table adopted from the closure BFS) at
#: a count-batch population —
#: the (protocol, n) cell the replica dimension was built for.
_SWEEP_N = 10**6
_SWEEP_REPLICAS = 32


def _gsu19_headline_calibration(n: int) -> GSULeaderElection:
    """The headline-tier calibration, independent of the sweep's ``n``.

    Module-level (not a lambda) so the sweep scheduler can ship it to pool
    workers.
    """
    return GSULeaderElection.for_population(5 * 10**7)


def run_sweep_ablation(
    n: int = _SWEEP_N,
    replicas: int = _SWEEP_REPLICAS,
    rounds: int = 3,
    seeds_per_cell: int = 8,
) -> dict:
    """Measure the replica-vectorised sweep path against scalar sweeps.

    Two measurements:

    * ``replica`` — ``replicas`` scalar runs (fresh engine per seed, the
      per-cell sweep path) against one replicated engine advancing the same
      seeds as an (R, k) count matrix.  Each leg is timed ``rounds`` times
      and reports its best round: the legs are deterministic, so the best
      round is the least-noise measurement and the ratio of bests is the
      machine-independent quantity (shared-host wall clocks see
      multiplicative noise bursts that medians do not fully reject at
      second-scale legs).
    * ``scheduler`` — a budget-capped mini-sweep (one cell per seed) driven
      through :func:`repro.engine.parallel.run_cells` serially and with
      ``workers=available_cpus()``, recording both wall clocks and the CPU
      count so multi-worker scaling is tracked where CI machines have the
      cores (on a single-CPU runner both legs run serially by design — the
      scheduler clamps to the affinity mask).
    """
    from repro.engine.count_batch import replicated_engine
    from repro.engine.parallel import available_cpus, run_cells
    from repro.engine.rng import spawn_seeds

    factory = _gsu19_headline_calibration
    factory(n).reachable_state_closure()  # one-time BFS outside timings
    seeds = spawn_seeds(777, replicas)
    warm = CountBatchEngine(factory(n), n, rng=1)
    warm.run(n)
    kernel_used = "c" if count_kernel_available() else "python"

    scalar_rounds: List[float] = []
    replica_rounds: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        for seed in seeds:
            engine = CountBatchEngine(factory(n), n, rng=seed)
            engine.run(n)
        scalar_rounds.append(time.perf_counter() - start)
        start = time.perf_counter()
        replicated = replicated_engine(factory, n, seeds)
        replicated.run(n)
        replica_rounds.append(time.perf_counter() - start)
    scalar_best = min(scalar_rounds)
    replica_best = min(replica_rounds)

    cpus = available_cpus()
    sweep_seeds = list(spawn_seeds(888, seeds_per_cell))
    serial_rounds: List[float] = []
    pooled_rounds: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        run_cells(factory, n, sweep_seeds, max_parallel_time=4.0, engine="countbatch")
        serial_rounds.append(time.perf_counter() - start)
        start = time.perf_counter()
        run_cells(
            factory,
            n,
            sweep_seeds,
            max_parallel_time=4.0,
            engine="countbatch",
            workers=cpus,
        )
        pooled_rounds.append(time.perf_counter() - start)

    return {
        "sweep": {
            "schema": "bench-engine-sweep/v1",
            "workload": {
                "protocol": "gsu19-leader-election (headline calibration)",
                "n": n,
                "replicas": replicas,
                "metric": "best-of-rounds leg seconds; ratio = scalar / replica",
                "rounds": rounds,
                "kernel": kernel_used,
                "count_kernel_available": count_kernel_available(),
                "acceptance": (
                    "none: tests/test_engine_replicated.py counts what "
                    "replication saves (one shared LUT, one kernel call "
                    "per step for 32 rows)"
                ),
            },
            "replica": {
                "scalar_best_seconds": scalar_best,
                "scalar_rounds_seconds": scalar_rounds,
                "replica_best_seconds": replica_best,
                "replica_rounds_seconds": replica_rounds,
                "speedup_replica_vs_scalar": scalar_best / replica_best,
            },
            "scheduler": {
                "cells": seeds_per_cell,
                "max_parallel_time": 4.0,
                "available_cpus": cpus,
                # On < 2 CPUs both legs run serially by design (the
                # scheduler clamps workers to the affinity mask), so the
                # speedup ratio measures scheduling overhead, not scaling.
                "cpu_starved": cpus < 2,
                "serial_best_seconds": min(serial_rounds),
                "workers_best_seconds": min(pooled_rounds),
                "speedup_workers_vs_serial": min(serial_rounds)
                / min(pooled_rounds),
            },
        }
    }


# ----------------------------------------------------------------------
# In-process parallelism section (--threads)

#: Threads section workload: same headline calibration as the sweep
#: section, at a population where each timed leg is second-scale — large
#: enough that the kernel's GIL-released row loop dominates the leg.
_THREADS_N = 10**7
_THREADS_REPLICAS = 32


def run_threads_ablation(
    n: int = _THREADS_N,
    replicas: int = _THREADS_REPLICAS,
    rounds: int = 3,
    thread_counts: Sequence[Optional[int]] = (1, 2, 4, None),
    sweep_n: int = _SWEEP_N,
    seeds_per_cell: int = 8,
) -> dict:
    """Measure the multi-row kernel's thread scaling and the sweep backends.

    Two measurements:

    * ``kernel_scaling`` — one replicated engine (``replicas`` rows of the
      headline calibration at ``n``) advanced a full budget at each kernel
      thread count (``None`` = all available CPUs).  Results
      are bit-identical at every thread count by construction (pinned by
      ``tests/test_engine_threads.py``), so the legs time identical work
      and the ratio of bests is pure thread scaling.
    * ``backends`` — the same budget-capped mini-sweep as the sweep
      section's scheduler leg, driven serially, on the thread backend and
      on the process backend.

    Both record ``available_cpus`` and a ``cpu_starved`` flag: on a
    single-CPU runner every leg necessarily times the same serialised work
    and the ratios measure overhead, not scaling — the acceptance number
    (>= 3x at 4 threads) is only meaningful where ``cpu_starved`` is false.
    Requires the compiled count kernel (the caller gates on it).
    """
    from repro.engine._count_kernel import kernel_thread_backend
    from repro.engine.count_batch import _advance_rows, replicated_engine
    from repro.engine.cpus import available_cpus
    from repro.engine.parallel import run_cells
    from repro.engine.rng import spawn_seeds

    factory = _gsu19_headline_calibration
    factory(n).reachable_state_closure()  # one-time BFS outside timings
    cpus = available_cpus()
    seeds = spawn_seeds(777, replicas)
    warm = CountBatchEngine(factory(n), n, rng=1)
    warm.run(n)

    scaling: List[dict] = []
    one_thread_best: Optional[float] = None
    for requested in thread_counts:
        threads = cpus if requested is None else requested
        legs: List[float] = []
        for _ in range(rounds):
            engine = replicated_engine(factory, n, seeds)
            start = time.perf_counter()
            _advance_rows(engine, engine.rows, [n] * replicas, threads)
            legs.append(time.perf_counter() - start)
        best = min(legs)
        if requested == 1:
            one_thread_best = best
        scaling.append(
            {
                "requested": "all" if requested is None else requested,
                "threads": threads,
                "best_seconds": best,
                "rounds_seconds": legs,
            }
        )
    if one_thread_best is not None:
        for record in scaling:
            record["speedup_vs_1_thread"] = one_thread_best / record["best_seconds"]

    sweep_seeds = list(spawn_seeds(888, seeds_per_cell))
    backend_rounds: Dict[str, List[float]] = {"serial": [], "thread": [], "process": []}
    for _ in range(rounds):
        start = time.perf_counter()
        run_cells(
            factory, sweep_n, sweep_seeds, max_parallel_time=4.0, engine="countbatch"
        )
        backend_rounds["serial"].append(time.perf_counter() - start)
        for backend in ("thread", "process"):
            start = time.perf_counter()
            run_cells(
                factory,
                sweep_n,
                sweep_seeds,
                max_parallel_time=4.0,
                engine="countbatch",
                workers=cpus,
                backend=backend,
            )
            backend_rounds[backend].append(time.perf_counter() - start)

    return {
        "threads": {
            "schema": "bench-engine-threads/v1",
            "workload": {
                "protocol": "gsu19-leader-election (headline calibration)",
                "n": n,
                "replicas": replicas,
                "rounds": rounds,
                "metric": "best-of-rounds leg seconds",
                "kernel_thread_backend": kernel_thread_backend(),
                "available_cpus": cpus,
                "cpu_starved": cpus < 2,
                "acceptance": (
                    "kernel at 4 threads >= 3x faster than 1 thread "
                    "(meaningful only where cpu_starved is false)"
                ),
            },
            "kernel_scaling": scaling,
            "backends": {
                "cells": seeds_per_cell,
                "n": sweep_n,
                "max_parallel_time": 4.0,
                "workers": cpus,
                "serial_best_seconds": min(backend_rounds["serial"]),
                "thread_best_seconds": min(backend_rounds["thread"]),
                "process_best_seconds": min(backend_rounds["process"]),
                "speedup_thread_vs_serial": min(backend_rounds["serial"])
                / min(backend_rounds["thread"]),
                "speedup_thread_vs_process": min(backend_rounds["process"])
                / min(backend_rounds["thread"]),
            },
        }
    }


# ----------------------------------------------------------------------
# Approximate-tier section (--approx)

#: Approximate-tier sizes: the count-batch sweet spot, the headline
#: calibration scale, and a point where even the compiled count kernel's
#: exact sampling is minutes-scale — the regime the tier was built for.
_APPROX_SIZES = (10**6, 10**8, 10**10)
#: Parallel-time budget per timed leg — past GSU19's dueling phase at
#: these calibrations, so every engine sees steady-state dynamics.
_APPROX_TAU = 10.0
#: Exact countbatch comparator gating: always at 10^6; at 10^8 only
#: through the compiled count kernel (the Python path would take minutes
#: per round); never at 10^10, where the approximate tier is the point.
_APPROX_EXACT_ALWAYS = 10**6
_APPROX_EXACT_KERNEL = 10**8
_APPROX_KS_N = 128
_APPROX_KS_SEEDS = 30
#: KS workloads: the simplest monotone dynamics and the headline protocol
#: (the full five-workload sweep lives in tests/test_engine_approx.py;
#: the bench records the two cheap, representative cells PR over PR).
_APPROX_KS_WORKLOADS = ("epidemic", "gsu19")


def _gsu19_lazy(n: int) -> GSULeaderElection:
    """GSU19 at the calibration of ``n`` but without the closure BFS.

    ``for_population(n)`` at count-batch scale pre-registers the reachable
    closure (a ~1 s BFS per calibration, amortised against exact
    count-space sweeps); the approximate tier discovers its active states
    lazily in milliseconds, so this derives the (gamma, phi, psi)
    calibration from ``n`` and pins ``n_hint`` below the closure gate.
    The exact comparator runs on the same lazily-discovered table — a
    *smaller* occupied frontier than the registered closure, i.e. the
    comparison errs in the exact engine's favour.
    """
    from repro.core.params import GSUParams

    params = GSUParams.from_population_size(n)
    return GSULeaderElection(
        GSUParams(
            n_hint=1000, gamma=params.gamma, phi=params.phi, psi=params.psi
        )
    )


def run_approx_ablation(
    sizes: Sequence[int] = _APPROX_SIZES,
    rounds: int = 3,
    tau: float = _APPROX_TAU,
    ks_seeds: int = _APPROX_KS_SEEDS,
) -> dict:
    """Measure the approximate tier's wall clock and its accuracy cost.

    Two measurements:

    * timing — mean-field and tau-leap advance ``tau`` parallel-time units
      of GSU19 at each size (construction timed separately; rounds
      interleaved round-robin as in :func:`run_ablation`).  The exact
      ``countbatch`` comparator rides along where it is feasible (see
      ``_APPROX_EXACT_*``), so the JSON records the measured speedup the
      tier buys, not just its absolute cost.
    * accuracy — the tau-leap engine's two-sample KS statistics against
      the sequential reference on convergence times and mid-dynamics
      censuses at ``n = 128`` (disjoint seed ranges), the same quantities
      the acceptance harness in ``tests/test_engine_approx.py`` bounds.
      Mean-field is deterministic, so a KS test against it is meaningless;
      its accuracy contract (O(1/sqrt(n)) mean-occupancy band) is enforced
      by the harness and not re-measured here.
    """
    from repro.analysis.accuracy import census_sample, convergence_sample
    from repro.analysis.stats import ks_two_sample
    from repro.engine.meanfield import MeanFieldEngine
    from repro.engine.tauleap import TauLeapEngine

    def engines_for(n: int) -> Dict[str, Type[BaseEngine]]:
        cells: Dict[str, Type[BaseEngine]] = {
            "meanfield": MeanFieldEngine,
            "tauleap": TauLeapEngine,
        }
        if n <= _APPROX_EXACT_ALWAYS or (
            n <= _APPROX_EXACT_KERNEL and count_kernel_available()
        ):
            cells["countbatch"] = CountBatchEngine
        return cells

    timings: Dict[tuple, List[tuple]] = {}
    occupied: Dict[tuple, int] = {}
    for _ in range(rounds):
        for n in sizes:
            for name, engine_cls in engines_for(n).items():
                start = time.perf_counter()
                engine = engine_cls(_gsu19_lazy(n), n, rng=1)
                constructed = time.perf_counter()
                engine.run_parallel_time(tau)
                finished = time.perf_counter()
                timings.setdefault((name, n), []).append(
                    (constructed - start, finished - constructed)
                )
                occupied[(name, n)] = len(engine.state_count_items())
    results: List[dict] = []
    for (name, n), rows in timings.items():
        seconds = median(s for _, s in rows)
        results.append(
            {
                "engine": name,
                "n": n,
                "parallel_time": tau,
                "interactions_equivalent": tau * n,
                "median_construct_seconds": median(c for c, _ in rows),
                "median_run_seconds": seconds,
                "best_run_seconds": min(s for _, s in rows),
                "occupied_states": occupied[(name, n)],
            }
        )
    speedup_vs_countbatch: Dict[str, Dict[str, float]] = {}
    for n in sizes:
        exact = next(
            (
                r
                for r in results
                if r["n"] == n and r["engine"] == "countbatch"
            ),
            None,
        )
        if exact is None:
            continue
        speedup_vs_countbatch[str(n)] = {
            r["engine"]: exact["median_run_seconds"] / r["median_run_seconds"]
            for r in results
            if r["n"] == n and r["engine"] != "countbatch"
        }

    ks_records: List[dict] = []
    reference_seeds = range(ks_seeds)
    candidate_seeds = [s + 100_000 for s in reference_seeds]
    for workload in _APPROX_KS_WORKLOADS:
        conv_ks = ks_two_sample(
            convergence_sample(
                SequentialEngine, workload, _APPROX_KS_N, reference_seeds
            ),
            convergence_sample(
                TauLeapEngine, workload, _APPROX_KS_N, candidate_seeds
            ),
        )
        census_ks = ks_two_sample(
            census_sample(
                SequentialEngine, workload, _APPROX_KS_N, reference_seeds
            ),
            census_sample(
                TauLeapEngine, workload, _APPROX_KS_N, candidate_seeds
            ),
        )
        ks_records.append(
            {
                "workload": workload,
                "engine": "tauleap",
                "reference": "sequential",
                "n": _APPROX_KS_N,
                "seeds": ks_seeds,
                "convergence_ks_statistic": conv_ks.statistic,
                "convergence_ks_pvalue": conv_ks.pvalue,
                "census_ks_statistic": census_ks.statistic,
                "census_ks_pvalue": census_ks.pvalue,
            }
        )

    return {
        "approx": {
            "schema": "bench-engine-approx/v1",
            "workload": {
                "protocol": "gsu19-leader-election (lazy table, no closure)",
                "parallel_time": tau,
                "metric": (
                    "seconds to advance tau parallel-time units (median "
                    "of rounds; construction separate)"
                ),
                "rounds": rounds,
                "count_kernel_available": count_kernel_available(),
                "note": (
                    "meanfield/tauleap cost is O(k^2) per step independent "
                    "of n; the exact comparator is gated (always at 10^6, "
                    "kernel-only at 10^8, never at 10^10) so the section "
                    "stays minutes-scale; ks records are tau-leap vs "
                    "sequential at n = 128 — the acceptance harness in "
                    "tests/test_engine_approx.py holds these at p > 0.01 "
                    "across five workloads"
                ),
            },
            "results": results,
            "speedup_vs_countbatch": speedup_vs_countbatch,
            "ks": ks_records,
        }
    }


def write_bench_json(document: dict, path: Path = _DEFAULT_OUTPUT) -> Path:
    """Merge ``document`` into ``path`` (other top-level sections survive)."""
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (OSError, ValueError):
            existing = {}
    existing.update(document)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(ABLATION_SIZES),
        help="population sizes to ablate over",
    )
    parser.add_argument("--rounds", type=int, default=5, help="timing rounds per cell")
    parser.add_argument(
        "--out", type=Path, default=_DEFAULT_OUTPUT, help="output JSON path"
    )
    parser.add_argument(
        "--no-gsu19",
        action="store_true",
        help="skip the GSU19 count-space section (saves its ~1 s closure BFS)",
    )
    parser.add_argument(
        "--no-epidemic",
        action="store_true",
        help=(
            "skip the epidemic engine ablation (combine with --no-gsu19 to "
            "merge just the opt-in sections into the JSON without touching "
            "the recorded full-size ablation)"
        ),
    )
    parser.add_argument(
        "--topology",
        action="store_true",
        help=(
            "also measure pair_block throughput of every scheduler kind "
            "(complete / cycle / grid2d / random-regular / power-law) at "
            "n = 10^6 — the scenario axis's randomness hot path"
        ),
    )
    parser.add_argument(
        "--observed",
        action="store_true",
        help=(
            "also measure observed-vs-unobserved GSU19 throughput "
            "(SingleLeader + role-census recorder at a dense check cadence)"
        ),
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help=(
            "also measure the sweep scheduler: 32 replica-vectorised GSU19 "
            "runs against 32 scalar runs, and serial-vs-workers sweep wall "
            "clock (pays the headline calibration's one-time closure BFS)"
        ),
    )
    parser.add_argument(
        "--threads",
        action="store_true",
        help=(
            "also measure in-process parallelism: multi-row kernel wall "
            "clock at 1/2/4/all threads (32 GSU19 replicas at n = 10^7, "
            "bit-identical legs) and thread-vs-process sweep backends "
            "(requires the compiled count kernel)"
        ),
    )
    parser.add_argument(
        "--approx",
        action="store_true",
        help=(
            "also measure the approximate tier: mean-field and tau-leap "
            "wall clock on GSU19 at n in {10^6, 10^8, 10^10} against the "
            "gated exact countbatch comparator, plus tau-leap-vs-"
            "sequential KS statistics at n = 128"
        ),
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    document: dict = {}
    if not args.no_epidemic:
        document = run_ablation(sizes=args.sizes, rounds=args.rounds)
    # The GSU19 section respects --sizes: a quick small-size smoke must not
    # silently pay the tier's closure BFS and 10^7-agent warm-ups.
    gsu19_sizes = tuple(n for n in _GSU19_SIZES if n <= max(args.sizes))
    # The count-space-only cells ride along with the full-size run (their
    # n is count-space scale, far past any sensible --sizes override) and
    # additionally require the compiled count kernel: the Python path's
    # 2n-interaction warm-up at 10^9 would take minutes per round and
    # measure nothing the smaller cells don't.
    gsu19_kernel_sizes = (
        _GSU19_KERNEL_SIZES if max(args.sizes) >= max(_GSU19_SIZES) else ()
    )
    if gsu19_kernel_sizes and not count_kernel_available():
        print(
            "count-space-only GSU19 cells skipped: compiled count kernel "
            "unavailable",
            file=sys.stderr,
        )
        gsu19_kernel_sizes = ()
    if not args.no_gsu19 and (gsu19_sizes or gsu19_kernel_sizes):
        document.update(
            run_gsu19_ablation(
                sizes=gsu19_sizes,
                rounds=max(2, args.rounds - 2),
                kernel_sizes=gsu19_kernel_sizes,
            )
        )
    observed_sizes = tuple(n for n in _OBSERVED_SIZES if n <= max(args.sizes))
    if args.observed:
        if observed_sizes:
            document.update(
                run_observed_ablation(
                    sizes=observed_sizes, rounds=max(2, args.rounds - 2)
                )
            )
        else:
            print(
                "--observed skipped: the observed section measures at "
                f"n in {list(_OBSERVED_SIZES)}, all above the largest "
                f"requested size {max(args.sizes)}",
                file=sys.stderr,
            )
    if args.sweep:
        document.update(run_sweep_ablation(rounds=max(2, args.rounds - 2)))
    if args.threads:
        if count_kernel_available():
            document.update(run_threads_ablation(rounds=max(2, args.rounds - 2)))
        else:
            print(
                "--threads skipped: the multi-row kernel scaling section "
                "requires the compiled count kernel",
                file=sys.stderr,
            )
    if args.topology:
        document.update(run_topology_ablation(rounds=args.rounds))
    if args.approx:
        document.update(run_approx_ablation(rounds=max(2, args.rounds - 2)))
    path = write_bench_json(document, args.out)
    for record in document.get("results", []):
        print(
            f"{record['engine']:>10}  n={record['n']:>8}  "
            f"{record['throughput_per_second'] / 1e6:8.2f} M interactions/s"
        )
    for n, per_engine in document.get("speedup_vs_sequential", {}).items():
        gains = ", ".join(f"{name} {value:.2f}x" for name, value in per_engine.items())
        print(f"speedup vs sequential at n={n}: {gains}")
    for record in document.get("gsu19", {}).get("results", []):
        print(
            f"gsu19 {record['engine']:>15}  n={record['n']:>8}  "
            f"{record['throughput_per_second'] / 1e6:8.2f} M interactions/s  "
            f"(occupied {record['occupied_states']})"
        )
    for record in document.get("observed", {}).get("results", []):
        print(
            f"observed {record['engine']:>12}  n={record['n']:>8}  "
            f"{record['median_observed_seconds']:.3f}s vs "
            f"{record['median_unobserved_seconds']:.3f}s unobserved  "
            f"(x{record['ratio_observed_over_unobserved']:.3f}, "
            f"{record['checks']} checks)"
        )
    for record in document.get("topology", {}).get("results", []):
        print(
            f"topology {record['scheduler']:>16}  n={record['n']:>8}  "
            f"{record['pairs_per_second'] / 1e6:8.2f} M pairs/s  "
            f"(construct {record['median_construct_seconds']:.3f}s)"
        )
    approx_section = document.get("approx", {})
    for record in approx_section.get("results", []):
        print(
            f"approx {record['engine']:>10}  n={record['n']:>12}  "
            f"{record['median_run_seconds']:8.3f}s for "
            f"tau={record['parallel_time']:g}  "
            f"(construct {record['median_construct_seconds']:.3f}s, "
            f"occupied {record['occupied_states']})"
        )
    for n, per_engine in approx_section.get(
        "speedup_vs_countbatch", {}
    ).items():
        gains = ", ".join(
            f"{name} {value:.1f}x" for name, value in per_engine.items()
        )
        print(f"approx speedup vs countbatch at n={n}: {gains}")
    for record in approx_section.get("ks", []):
        print(
            f"approx ks {record['workload']:>14}  "
            f"convergence p={record['convergence_ks_pvalue']:.3f}  "
            f"census p={record['census_ks_pvalue']:.3f}"
        )
    sweep_section = document.get("sweep")
    if sweep_section:
        replica = sweep_section["replica"]
        scheduler = sweep_section["scheduler"]
        print(
            f"sweep replica: {replica['replica_best_seconds']:.3f}s for "
            f"{sweep_section['workload']['replicas']} replicated runs vs "
            f"{replica['scalar_best_seconds']:.3f}s scalar "
            f"(x{replica['speedup_replica_vs_scalar']:.2f})"
        )
        print(
            f"sweep scheduler: serial {scheduler['serial_best_seconds']:.3f}s "
            f"vs {scheduler['workers_best_seconds']:.3f}s with "
            f"{scheduler['available_cpus']} worker(s) "
            f"(x{scheduler['speedup_workers_vs_serial']:.2f})"
            + (" [cpu starved]" if scheduler.get("cpu_starved") else "")
        )
    threads_section = document.get("threads")
    if threads_section:
        workload = threads_section["workload"]
        starved = " [cpu starved]" if workload["cpu_starved"] else ""
        for record in threads_section["kernel_scaling"]:
            speedup = record.get("speedup_vs_1_thread")
            gain = f"  (x{speedup:.2f} vs 1 thread)" if speedup else ""
            print(
                f"threads kernel: {record['requested']!s:>4} -> "
                f"{record['threads']} thread(s)  "
                f"{record['best_seconds']:.3f}s{gain}{starved}"
            )
        backends = threads_section["backends"]
        print(
            f"threads backends: serial {backends['serial_best_seconds']:.3f}s, "
            f"thread {backends['thread_best_seconds']:.3f}s, "
            f"process {backends['process_best_seconds']:.3f}s with "
            f"{backends['workers']} worker(s) "
            f"(thread x{backends['speedup_thread_vs_serial']:.2f} vs serial, "
            f"x{backends['speedup_thread_vs_process']:.2f} vs process)"
            f"{starved}"
        )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
