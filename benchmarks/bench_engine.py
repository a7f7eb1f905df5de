"""Engine throughput benchmark: the measurements behind README's measured table.

One run measures four sections and writes them, whole, to
``BENCH_engine.json`` (or ``--out``):

* ``results`` — one-way epidemic throughput of every exact engine at each
  ``--sizes`` population (default ``10^4 … 10^7``);
* ``gsu19`` — the exact engines on GSU19 with its reachable closure
  registered, at ``10^6`` and ``10^7`` plus a kernel-only ``countbatch``
  cell at ``10^9``: the occupied frontier the dispatcher's count-batch
  cost model keys on;
* ``observed`` — observed-vs-unobserved GSU19 run time (``SingleLeader``
  plus a role-census recorder at one check per ``n/100`` interactions);
* ``approx`` — mean-field and tau-leap wall clock on GSU19 at
  ``10^6``, ``10^8`` and ``10^10`` against a gated exact ``countbatch``
  comparator.  The tier's accuracy is asserted by
  ``tests/test_engine_approx.py``, not measured here.

Each section's ``workload`` records the commit, the CPU count and the
date.  ``python tools/render_bench.py`` renders README's measured table
from the file, and its ``--check`` mode fails when the two disagree.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py --sizes 10000 --rounds 1 \\
        --out /tmp/bench-smoke.json

The full run takes about five minutes on two CPUs; smoke runs must write
elsewhere (``--out``) so the committed file keeps the numbers README
shows.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Type

from repro.core.params import GSUParams
from repro.core.protocol import CLOSURE_MIN_N_HINT, GSULeaderElection
from repro.engine._ckernel import kernel_available
from repro.engine._count_kernel import count_kernel_available
from repro.engine.base import BaseEngine
from repro.engine.count_batch import CountBatchEngine
from repro.engine.cpus import available_cpus
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.protocols.epidemic import OneWayEpidemic

_REPO = Path(__file__).resolve().parent.parent
_DEFAULT_OUTPUT = _REPO / "BENCH_engine.json"

#: Version of the file layout ``tools/render_bench.py`` reads.
SCHEMA = "bench-engine/v2"


def _fastbatch_numpy(protocol, n, rng=None) -> FastBatchEngine:
    """FastBatchEngine with the C kernel disabled (portable NumPy path)."""
    return FastBatchEngine(protocol, n, rng, kernel="numpy")


def _countbatch_python(protocol, n, rng=None) -> CountBatchEngine:
    """CountBatchEngine pinned to the pure-Python path (count kernel off)."""
    return CountBatchEngine(protocol, n, rng, kernel="python")


#: Epidemic engines, in ablation order (the sequential reference first).
#: The batched engine appears twice: with whatever hot path dispatch would
#: use (the C kernel where a compiler exists) and pinned to the NumPy
#: wave schedule, so the file tracks both.
ABLATION_ENGINES: Dict[str, Type[BaseEngine]] = {
    "sequential": SequentialEngine,
    "countbatch": CountBatchEngine,
    "fastbatch": FastBatchEngine,
    "fastbatch-numpy": _fastbatch_numpy,  # type: ignore[dict-item]
}

#: Epidemic population sizes (10^7 is where the configuration-space engine
#: has long overtaken the C kernel).
ABLATION_SIZES = (10**4, 10**5, 10**6, 10**7)


def _provenance() -> dict:
    """Commit, CPU count and date, stamped into every section's workload.

    The commit is ``git describe --always --dirty``, so numbers measured on
    an uncommitted tree say so.
    """
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=_REPO,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "cpus": available_cpus(),
        "date": datetime.date.today().isoformat(),
    }


def _time_run(
    engine_cls: Type[BaseEngine], n: int, interactions: int
) -> tuple[float, float]:
    """``(construction seconds, run seconds)`` for a fresh epidemic engine.

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
    """Every engine's epidemic throughput at every population size.

    Each (engine, n) cell runs ``rounds`` times from a fresh engine and
    reports the *median* round (robust against scheduler noise in either
    direction; min-of-rounds flatters whichever engine got the luckiest
    round).  Rounds are interleaved across engines so that drifting
    machine speed (frequency scaling, noisy neighbours) lands on every
    engine instead of skewing whichever one owned that time window.
    """
    results: List[dict] = []
    for n in sizes:
        budget = max(10_000, min(4 * n, base_interactions))
        timings: Dict[str, List[tuple]] = {name: [] for name in ABLATION_ENGINES}
        for _ in range(rounds):
            for name, engine_cls in ABLATION_ENGINES.items():
                timings[name].append(_time_run(engine_cls, n, budget))
        for name in ABLATION_ENGINES:
            run_seconds = median(seconds for _, seconds in timings[name])
            results.append(
                {
                    "engine": name,
                    "n": n,
                    "interactions": budget,
                    "median_construct_seconds": median(s for s, _ in timings[name]),
                    "median_run_seconds": run_seconds,
                    "throughput_per_second": budget / run_seconds,
                }
            )
    return {
        "workload": {
            "protocol": "one-way-epidemic",
            "metric": "interactions per second (median of rounds)",
            "rounds": rounds,
            # Without a C compiler 'fastbatch' runs the NumPy path and
            # duplicates 'fastbatch-numpy'.
            "c_kernel_available": kernel_available(),
            **_provenance(),
        },
        "results": results,
    }


#: Exact engines compared on the GSU19 section.
_GSU19_ENGINES: Dict[str, Type[BaseEngine]] = {
    "sequential": SequentialEngine,
    "countbatch": CountBatchEngine,
    "countbatch-python": _countbatch_python,  # type: ignore[dict-item]
    "fastbatch": FastBatchEngine,
    "fastbatch-numpy": _fastbatch_numpy,  # type: ignore[dict-item]
}

#: GSU19 sizes: 10^6 (every per-agent engine comfortable) and 10^7 (the
#: headline tier's fast-batch point; 10^8, where auto forces the count
#: engine, is a day-scale run on the per-agent engines).
_GSU19_SIZES = (10**6, 10**7)

#: Count-space-only sizes: past ~10^8 the per-agent engines need gigabytes
#: and the Python count path's 2n-interaction warm-up alone takes minutes,
#: so only the kernel-backed ``countbatch`` row is timed there.
_GSU19_KERNEL_SIZES = (10**9,)


def _gsu19_at_scale(n: int) -> GSULeaderElection:
    """GSU19 with the calibration for ``n`` and its closure declared.

    ``n_hint`` is floored at the closure threshold so even the ``10^6``
    cell registers the reachable closure (``n_hint`` is validation-only;
    the dynamics depend on ``(gamma, phi, psi)`` alone, derived from the
    real ``n``): the section measures the count-space configuration every
    engine sees in the headline tier.
    """
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
    """The exact engines on the headline GSU19 protocol.

    The reachable closure is computed once per calibration, outside the
    timings, and registered with every engine's table.  Each engine first
    *warms* the configuration for two parallel-time units: GSU19's occupied
    frontier grows from 1 to dozens of states over the first rounds, and
    the steady-state frontier is what the dispatcher's cost model is
    calibrated against.  ``kernel_sizes`` adds cells where only the
    kernel-backed ``countbatch`` engine is timed.
    """
    results: List[dict] = []
    cells = [(n, _GSU19_ENGINES) for n in sizes]
    cells += [(n, {"countbatch": CountBatchEngine}) for n in kernel_sizes]
    for n, engines in cells:
        _gsu19_at_scale(n).reachable_state_closure()
        budget = min(4 * n, base_interactions)
        for name, engine_cls in engines.items():
            constructs: List[float] = []
            run_seconds: List[float] = []
            for _ in range(rounds):
                start = time.perf_counter()
                engine = engine_cls(_gsu19_at_scale(n), n, rng=1)
                constructed = time.perf_counter()
                engine.run(2 * n)
                warmed = time.perf_counter()
                engine.run(budget)
                run_seconds.append(time.perf_counter() - warmed)
                constructs.append(constructed - start)
            seconds = median(run_seconds)
            results.append(
                {
                    "engine": name,
                    "n": n,
                    "interactions": budget,
                    "median_construct_seconds": median(constructs),
                    "median_run_seconds": seconds,
                    "throughput_per_second": budget / seconds,
                    "occupied_states": len(engine.state_count_items()),
                }
            )
    return {
        "workload": {
            "protocol": "gsu19-leader-election, reachable closure registered",
            "metric": (
                "interactions per second (median of rounds, after a "
                "2-parallel-time warm-up); occupied_states is the frontier "
                "at the end of the timed window"
            ),
            "rounds": rounds,
            "c_kernel_available": kernel_available(),
            "count_kernel_available": count_kernel_available(),
            **_provenance(),
        },
        "results": results,
    }


#: Observed-section sizes.
_OBSERVED_SIZES = (10**6, 10**7)

#: One convergence check (predicate + recorder) per ``n / 100``
#: interactions: far denser than the driver's default of one per
#: parallel-time unit, so the overhead bounds any realistic schedule.
_OBSERVED_CHECK_DIVISOR = 100


def run_observed_ablation(
    sizes: Sequence[int] = _OBSERVED_SIZES,
    rounds: int = 3,
    base_interactions: int = 4_000_000,
) -> dict:
    """Observed-vs-unobserved GSU19 run time on the two exact batch engines.

    The *observed* run attaches the protocol's ``SingleLeader`` predicate
    (with its compiled uninitialised-view side condition) and a
    ``RoleCensusRecorder``, checked every ``n / 100`` interactions; the
    *unobserved* run executes the same interactions with no checks.  Both
    share the GSU19 section's warm-up and budget.
    """
    from repro.core.monitor import RoleCensusRecorder

    results: List[dict] = []
    for n in sizes:
        _gsu19_at_scale(n).reachable_state_closure()
        budget = min(4 * n, base_interactions)
        check_every = max(1, n // _OBSERVED_CHECK_DIVISOR)
        for name in ("countbatch", "fastbatch"):
            engine_cls = _GSU19_ENGINES[name]
            unobserved_seconds: List[float] = []
            observed_seconds: List[float] = []
            for _ in range(rounds):
                engine = engine_cls(_gsu19_at_scale(n), n, rng=1)
                engine.run(2 * n)
                start = time.perf_counter()
                engine.run(budget)
                unobserved_seconds.append(time.perf_counter() - start)

                protocol = _gsu19_at_scale(n)
                engine = engine_cls(protocol, n, rng=1)
                predicate = protocol.convergence()
                recorder = RoleCensusRecorder()
                for view in predicate.views + recorder.views:
                    engine.table.view_values(view)  # what Simulation warms
                engine.run(2 * n)
                start = time.perf_counter()
                converged = engine.run_until(
                    predicate,
                    max_interactions=budget,
                    check_every=check_every,
                    on_check=recorder.record,
                )
                observed_seconds.append(time.perf_counter() - start)
            if converged:
                # The ratio compares equal workloads only if the election
                # is still running at the end of the window.
                print(
                    f"observed {name} n={n}: converged after "
                    f"{engine.interactions - 2 * n}/{budget} interactions; "
                    "the ratio compares unequal workloads",
                    file=sys.stderr,
                )
            results.append(
                {
                    "engine": name,
                    "n": n,
                    "interactions": budget,
                    "converged": converged,
                    "check_every": check_every,
                    "checks": len(recorder.times),
                    "median_unobserved_seconds": median(unobserved_seconds),
                    "median_observed_seconds": median(observed_seconds),
                }
            )
    return {
        "workload": {
            "protocol": "gsu19-leader-election, reachable closure registered",
            "observation": (
                "SingleLeader convergence (uninitialised-view side "
                "condition) + RoleCensusRecorder, one check per n/100 "
                "interactions"
            ),
            "metric": (
                "median run seconds over rounds, after a 2-parallel-time "
                "warm-up"
            ),
            "rounds": rounds,
            "c_kernel_available": kernel_available(),
            "count_kernel_available": count_kernel_available(),
            **_provenance(),
        },
        "results": results,
    }


#: Approximate-tier sizes: the count-batch sweet spot, the headline
#: calibration scale, and a point where even the count kernel's exact
#: sampling is minutes-scale (the regime the tier was built for).
_APPROX_SIZES = (10**6, 10**8, 10**10)
#: Parallel-time budget per timed leg: past GSU19's dueling phase at these
#: calibrations, so every engine sees steady-state dynamics.
_APPROX_TAU = 10.0
#: Exact countbatch comparator gating: always at 10^6; at 10^8 only
#: through the compiled count kernel (the Python path takes minutes per
#: round); never at 10^10, where the approximate tier is the point.
_APPROX_EXACT_ALWAYS = 10**6
_APPROX_EXACT_KERNEL = 10**8


def _gsu19_lazy(n: int) -> GSULeaderElection:
    """GSU19 at the calibration of ``n`` but without the closure BFS.

    The approximate tier discovers its active states lazily in
    milliseconds, so this pins ``n_hint`` below the closure gate.  The
    exact comparator runs on the same lazily discovered table, a *smaller*
    occupied frontier than the registered closure: the comparison errs in
    the exact engine's favour.
    """
    params = GSUParams.from_population_size(n)
    return GSULeaderElection(
        GSUParams(n_hint=1000, gamma=params.gamma, phi=params.phi, psi=params.psi)
    )


def run_approx_ablation(
    sizes: Sequence[int] = _APPROX_SIZES,
    rounds: int = 3,
    tau: float = _APPROX_TAU,
) -> dict:
    """Wall clock of the approximate tier against the exact comparator.

    Mean-field and tau-leap advance ``tau`` parallel-time units of GSU19 at
    each size (construction timed separately; rounds interleaved as in
    :func:`run_ablation`).  The exact ``countbatch`` comparator rides along
    where it is feasible (see ``_APPROX_EXACT_*``), so the file records the
    speedup the tier buys, not just its absolute cost.
    """
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
                timings.setdefault((name, n), []).append(
                    (constructed - start, time.perf_counter() - constructed)
                )
                occupied[(name, n)] = len(engine.state_count_items())
    results = [
        {
            "engine": name,
            "n": n,
            "parallel_time": tau,
            "median_construct_seconds": median(c for c, _ in rows),
            "median_run_seconds": median(s for _, s in rows),
            "occupied_states": occupied[(name, n)],
        }
        for (name, n), rows in timings.items()
    ]
    return {
        "workload": {
            "protocol": "gsu19-leader-election, lazy table (no closure)",
            "metric": (
                "seconds to advance parallel_time units (median of rounds; "
                "construction separate)"
            ),
            "rounds": rounds,
            "count_kernel_available": count_kernel_available(),
            "note": (
                "the exact countbatch comparator is gated: always at 10^6, "
                "kernel-only at 10^8, never at 10^10"
            ),
            **_provenance(),
        },
        "results": results,
    }


def run_all(sizes: Sequence[int] = ABLATION_SIZES, rounds: int = 5) -> dict:
    """Every section, sized by ``sizes``: the whole ``BENCH_engine.json``.

    The GSU19 and observed sections keep their sizes up to ``max(sizes)``,
    so a small-size smoke does not pay the 10^7-agent warm-ups; the
    kernel-only 10^9 cell rides along only with a run that reaches 10^7
    and has the compiled count kernel.
    """
    largest = max(sizes)
    section_rounds = max(2, rounds - 2)
    kernel_sizes: Sequence[int] = ()
    if largest >= max(_GSU19_SIZES):
        if count_kernel_available():
            kernel_sizes = _GSU19_KERNEL_SIZES
        else:
            print(
                "kernel-only GSU19 cells skipped: compiled count kernel "
                "unavailable",
                file=sys.stderr,
            )
    epidemic = run_ablation(sizes=sizes, rounds=rounds)
    return {
        "schema": SCHEMA,
        "workload": epidemic["workload"],
        "results": epidemic["results"],
        "gsu19": run_gsu19_ablation(
            sizes=tuple(n for n in _GSU19_SIZES if n <= largest),
            rounds=section_rounds,
            kernel_sizes=kernel_sizes,
        ),
        "observed": run_observed_ablation(
            sizes=tuple(n for n in _OBSERVED_SIZES if n <= largest),
            rounds=section_rounds,
        ),
        "approx": run_approx_ablation(rounds=section_rounds),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(ABLATION_SIZES),
        help="epidemic population sizes; also caps the GSU19 and observed sizes",
    )
    parser.add_argument(
        "--rounds", type=int, default=5, help="timing rounds per epidemic cell"
    )
    parser.add_argument(
        "--out", type=Path, default=_DEFAULT_OUTPUT, help="output JSON path"
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    document = run_all(sizes=args.sizes, rounds=args.rounds)
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    sections = {"results": document["results"]}
    sections.update(
        (name, document[name]["results"]) for name in ("gsu19", "observed", "approx")
    )
    for section, rows in sections.items():
        for record in rows:
            fields = ", ".join(
                f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
                for key, value in record.items()
            )
            print(f"{section}: {fields}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
