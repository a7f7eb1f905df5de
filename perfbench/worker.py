"""One benchmark process: set a workload up, run it, print one JSON line.

``run.py`` starts this file in a fresh interpreter for every repetition, so
the simulator's in-process caches (the GSU19 closure cache, per-protocol
transition tables) start empty, as they do for a user.  Modes:

``warm``
    Import every module the workloads use and load both C kernels, which
    fills the on-disk kernel build cache; reports the load time (the
    one-time compile when the cache was cold) and the environment stamp.
``setup``
    Time from the first ``import repro`` to the first interaction.
``measure``
    Set up, then run as many passes over the workload as fit in
    ``--seconds`` (at least one).  ``table1-sweep`` then runs one resume
    pass over the last pass's store.
``trace``
    Set up and run one pass with the tracer (``tracer.py``) installed, for
    the per-layer split, then remove it and run the untraced reference
    pass.  ``table1-sweep`` runs its traced pass serially (the baseline of
    cell inflation) and a resume pass; its reference is GSU19's cells run
    serially (the baseline of the tracing overhead), and every cell at
    ``available_cpus()`` workers.

The workloads are closed loops: one caller runs each simulation to
convergence before starting the next.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Parallel-time budget of every run (``ExperimentConfig.default()``'s);
#: a run that exhausts it counts as failed.
MAX_PARALLEL_TIME = 20000.0

#: ``n_hint`` of the count-space protocol: at this scale GSU19 registers its
#: reachable-state closure, as ``engine="auto"`` builds it from 3*10^7.
COUNT_SPACE_N_HINT = 10**8


@dataclasses.dataclass(frozen=True)
class LeaderWorkload:
    """GSU19 run to ``convergence()`` once per seed of a fixed seed list.

    The seeds are part of the workload, so every commit runs the same
    trajectories and their digests can be compared across commits.
    """

    n: int
    seeds: Tuple[int, ...]
    engine: str
    #: Count-space path: closure-registered protocol (``n_hint`` at count
    #: scale, gamma/phi/psi of ``for_population(n)``), a role-census
    #: recorder and a checkpoint every ``n`` interactions.
    count_space: bool = False
    #: Clock modulus override (toy sizes only: it shrinks the closure).
    gamma: Optional[int] = None
    #: Extra fresh-interpreter setup samples per run.  The count-space
    #: workload has none: its setup is a closure BFS of tens of seconds,
    #: sampled once per run by the measuring process.
    setup_repeats: int = 2


@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    """The cells of ``run_table1`` through ``runner.sweep`` and a store."""

    toy: bool = False
    setup_repeats: int = 2

    def config(self):
        from repro.experiments.config import ExperimentConfig

        if self.toy:
            # From n = 256 up, auto picks the fast-batch kernel, as in the
            # default sweep (and the thread backend, which needs no pickling).
            config = ExperimentConfig.smoke().with_sizes((256, 512))
        else:
            config = ExperimentConfig.default()
        return config.with_engine("auto")


WORKLOADS = {
    "leader-agent": LeaderWorkload(n=70_000, seeds=(1, 2), engine="auto"),
    "leader-count": LeaderWorkload(
        n=20_000, seeds=(1, 2), engine="countbatch", count_space=True, setup_repeats=0
    ),
    "table1-sweep": SweepWorkload(),
}

#: The same workloads at toy sizes, for the benchmark's own tests.
TOY_WORKLOADS = {
    "leader-agent": LeaderWorkload(n=2_000, seeds=(1,), engine="auto", setup_repeats=1),
    "leader-count": LeaderWorkload(
        n=2_000, seeds=(1,), engine="countbatch", count_space=True, gamma=8, setup_repeats=0
    ),
    "table1-sweep": SweepWorkload(toy=True, setup_repeats=1),
}


def workload_for(name: str, toy: bool):
    return (TOY_WORKLOADS if toy else WORKLOADS)[name]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def counts_digest(final_counts: Dict) -> str:
    """SHA-256 over the sorted final configuration.

    States are keyed as the experiment store keys them (strings as they
    are, anything else by ``repr``), so a run loaded from the store has the
    digest of the run that was saved.
    """
    items = sorted(
        (state if isinstance(state, str) else repr(state), count)
        for state, count in final_counts.items()
    )
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def run_record(result) -> dict:
    return {
        "label": f"{result.protocol_name}/n={result.n}/seed={result.seed}",
        "interactions": int(result.interactions),
        "parallel_time": float(result.parallel_time),
        "converged": bool(result.converged),
        "leaders": int(result.leader_count),
        "digest": counts_digest(result.final_counts),
        "run_s": float(result.wall_clock_seconds),
    }


def elected(record: dict) -> bool:
    """Converged under the protocol's predicate with exactly one leader."""
    return record["converged"] and record["leaders"] == 1


# ----------------------------------------------------------------------
# Leader workloads
# ----------------------------------------------------------------------
def leader_simulation(workload: LeaderWorkload, seed: int, workdir: Path):
    from repro.core.monitor import RoleCensusRecorder
    from repro.core.protocol import GSULeaderElection
    from repro.engine.simulation import Simulation

    protocol = GSULeaderElection.for_population(workload.n, gamma=workload.gamma)
    options = {}
    if workload.count_space:
        params = dataclasses.replace(protocol.params, n_hint=COUNT_SPACE_N_HINT)
        protocol = GSULeaderElection(params)
        options = dict(
            recorders=[RoleCensusRecorder()],
            checkpoint_every=workload.n,
            checkpoint_path=workdir / "leader-count.ckpt",
        )
    return Simulation(
        protocol,
        workload.n,
        rng=seed,
        engine_cls=workload.engine,
        convergence=protocol.convergence(),
        **options,
    )


def leader_pass(workload: LeaderWorkload, workdir: Path) -> dict:
    started = time.perf_counter()
    runs, errors = [], []
    for seed in workload.seeds:
        try:
            simulation = leader_simulation(workload, seed, workdir)
            runs.append(run_record(simulation.run(max_parallel_time=MAX_PARALLEL_TIME)))
        except Exception as error:  # noqa: BLE001 - a raising run counts as failed
            errors.append(f"seed {seed}: {error!r}")
    return {
        "pass_s": time.perf_counter() - started,
        "attempted": len(workload.seeds),
        "runs": runs,
        "errors": errors,
    }


# ----------------------------------------------------------------------
# Table 1 sweep
# ----------------------------------------------------------------------
def sweep_pass(workload: SweepWorkload, workers: int, store, only: Optional[str] = None) -> dict:
    """Every Table 1 protocol's sizes x seeds (or only protocol ``only``)."""
    from repro.errors import SweepError
    from repro.experiments.runner import sweep
    from repro.experiments.table1 import SIMULATED_PROTOCOLS

    config = workload.config()
    started = time.perf_counter()
    runs, rows, errors, attempted = [], [], [], 0
    for name, factory, is_slow in SIMULATED_PROTOCOLS:
        if only is not None and name != only:
            continue
        sizes = (
            config.sizes_capped(config.slow_protocol_max_n)
            if is_slow
            else list(config.population_sizes)
        )
        attempted += len(sizes) * config.repetitions
        try:
            cells = sweep(
                factory,
                sizes,
                repetitions=config.repetitions,
                base_seed=config.base_seed,
                max_parallel_time=config.max_parallel_time,
                engine=config.engine,
                workers=workers,
                store=store,
            )
        except SweepError as error:
            errors.append(f"{name}: {error}")
            runs.extend(run_record(point.result) for point in error.points)
            continue
        for n, outcomes in cells.items():
            records = [run_record(result) for result, _ in outcomes]
            runs.extend(records)
            # Table 1's "always one leader" column, computed as run_table1 does.
            rows.append([name, n, "yes" if all(map(elected, records)) else "NO"])
    return {
        "pass_s": time.perf_counter() - started,
        "attempted": attempted,
        "runs": runs,
        "rows": rows,
        "errors": errors,
    }


def fresh_store(workdir: Path, tag: str):
    from repro.experiments.store import ExperimentStore

    directory = workdir / f"store-{tag}"
    shutil.rmtree(directory, ignore_errors=True)
    return ExperimentStore(directory)


def resume_pass(workload: SweepWorkload, workdir: Path, tag: str) -> dict:
    """A second pass over an existing store: every cell must load."""
    from repro.experiments.store import ExperimentStore

    store = ExperimentStore(workdir / f"store-{tag}")
    result = sweep_pass(workload, 0, store)
    result.update(loaded=store.loaded, stored=store.stored)
    return result


def sweep_setup_simulation(workload: SweepWorkload):
    """The sweep's first cell, built the way the scheduler builds it."""
    from repro.engine.simulation import Simulation
    from repro.engine.rng import spawn_seeds
    from repro.experiments.runner import convergence_for
    from repro.experiments.table1 import SIMULATED_PROTOCOLS

    config = workload.config()
    _, factory, _ = SIMULATED_PROTOCOLS[0]
    n = config.population_sizes[0]
    protocol = factory(n)
    return Simulation(
        protocol,
        n,
        rng=spawn_seeds(config.base_seed, 1)[0],
        engine_cls=config.engine,
        convergence=convergence_for(protocol),
    )


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def setup(workload, workdir: Path, started: float) -> dict:
    """Build the workload's first simulation; ``started`` precedes the
    first ``import repro``, so the time covers imports, kernel load,
    protocol construction (closure BFS included), dispatch and engine
    construction."""
    from repro.engine.dispatch import canonical_name

    if isinstance(workload, LeaderWorkload):
        simulation = leader_simulation(workload, workload.seeds[0], workdir)
    else:
        simulation = sweep_setup_simulation(workload)
    return {
        "setup_s": time.perf_counter() - started,
        "resolved": canonical_name(type(simulation.engine)),
    }


def environment() -> dict:
    import platform

    import numpy

    from repro.engine._ckernel import kernel_available
    from repro.engine._count_kernel import count_kernel_available, kernel_thread_backend
    from repro.engine.cpus import available_cpus

    return {
        "available_cpus": available_cpus(),
        "kernel_available": kernel_available(),
        "count_kernel_available": count_kernel_available(),
        "kernel_thread_backend": kernel_thread_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def describe(workload) -> dict:
    """The workload's population size(s), engine and seeds per size."""
    if isinstance(workload, LeaderWorkload):
        return {"n": workload.n, "engine": workload.engine, "seed_count": len(workload.seeds)}
    config = workload.config()
    return {
        "n": list(config.population_sizes),
        "engine": config.engine,
        "seed_count": config.repetitions,
    }


def peak_rss_kib() -> int:
    """Peak resident memory of this process and its waited-for children."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def run_mode(mode: str, name: str, workload, workdir: Path, seconds: float, started: float) -> dict:
    if mode == "warm":
        import repro.core.monitor  # noqa: F401
        import repro.experiments.runner  # noqa: F401
        import repro.experiments.table1  # noqa: F401

        env = environment()
        return {
            "compile_s": time.perf_counter() - started,
            "environment": env,
            "workload": describe(workload),
        }

    if mode == "trace":
        from tracer import Tracer, install, layer_metrics

        tracer = install(Tracer())
    out = setup(workload, workdir, started)
    if mode == "setup":
        return out

    from repro.engine.cpus import available_cpus

    sweep = isinstance(workload, SweepWorkload)
    workers = available_cpus()
    if mode == "measure":
        passes: List[dict] = []
        measure_started = time.perf_counter()
        # At least one pass; another only while it should end within
        # ``seconds``, so a run's length does not depend on machine speed
        # more than its passes do.
        while not passes or (time.perf_counter() - measure_started) * (
            len(passes) + 1
        ) / len(passes) <= seconds:
            if sweep:
                passes.append(sweep_pass(workload, workers, fresh_store(workdir, name)))
            else:
                passes.append(leader_pass(workload, workdir))
            if len(passes) == 1:
                # The peak of one pass: later passes repeat the same work, and
                # how many fit depends on machine speed.
                out["peak_rss_kib"] = peak_rss_kib()
        out.update(passes=passes, workers=workers if sweep else 1)
        if sweep:
            out["resume"] = resume_pass(workload, workdir, name)
    else:  # trace: traced setup and pass, then the untraced reference
        if sweep:
            out["traced"] = sweep_pass(workload, 0, fresh_store(workdir, f"{name}-traced"))
            out["resume"] = resume_pass(workload, workdir, f"{name}-traced")
        else:
            out["traced"] = leader_pass(workload, workdir)
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer)
        out["resolved_traced"] = sorted(set(tracer.resolved))
        out["spans"] = len(tracer)
        tracer.write(workdir / f"trace-{name}.tsv")
        if sweep:
            # The tracing overhead is measured on GSU19's cells alone, which
            # keeps the invocation well inside its time limit.
            out["reference"] = sweep_pass(
                workload, 0, fresh_store(workdir, f"{name}-serial"), only="gsu19-leader-election"
            )
            out["parallel"] = sweep_pass(workload, workers, fresh_store(workdir, f"{name}-parallel"))
            out["workers"] = workers
        else:
            out["reference"] = leader_pass(workload, workdir)
    out.setdefault("peak_rss_kib", peak_rss_kib())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("warm", "setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = workload_for(args.workload, args.toy)
    started = time.perf_counter()  # nothing of repro is imported before this
    out = run_mode(args.mode, args.workload, workload, args.workdir, args.seconds, started)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
