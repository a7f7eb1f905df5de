#!/usr/bin/env python3
"""Time-to-leader benchmark of the GSU19 population-protocol simulator.

Run from the repository root::

    python3 perfbench/run.py --workload leader-count --seed 1 --seconds 20 --trace 0

Workloads (``worker.py`` defines their sizes):

``leader-agent``
    GSU19 ``for_population(n)`` on ``engine="auto"`` (the fast-batch C block
    kernel), run to ``convergence()`` for each seed of a fixed list.  Not
    listed in ``BENCHMARK.json``: its short runs spread too widely on a
    noisy host (``baseline.json`` records why).
``leader-count``
    GSU19 on the count-space path as ``auto`` builds it at scale: the
    reachable-state closure registered, the compiled count kernel, a
    role-census recorder and a checkpoint every ``n`` interactions.
``table1-sweep``
    The 80 cells of the paper's Table 1 (``ExperimentConfig.default()``,
    ``engine="auto"``) through ``runner.sweep`` with ``available_cpus()``
    workers and a fresh store, then a resume pass that must load every cell.

Every repetition runs in a fresh interpreter (``worker.py``).  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer split measured by
``tracer.py``.  The metric names and units are those of ``BENCHMARK.json``.
The line before it stamps the environment, the commit and every run's
interaction count and final-configuration digest.

The workloads' seed lists are fixed, so every commit runs the same
trajectories and the digests check them; ``--seed`` is recorded in the
stamp.  The benchmark exits 1 when a correctness check fails and 2 when
the simulator's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything the benchmark writes lives under this directory of the checkout.
BUILD_DIR = ROOT / ".bench_build"
#: Every process must have ended this long after the benchmark started.
DEADLINE_S = 175.0

sys.path.insert(0, str(HERE))
import worker  # noqa: E402


class BenchmarkError(RuntimeError):
    """A worker failed, timed out or printed no result."""


def metric_units(section: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def worker_env(workdir: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_KERNEL_CACHE"] = str(BUILD_DIR / "kernels")
    env["TMPDIR"] = str(workdir / "tmp")
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    return env


class Runner:
    """Starts worker processes for one workload and collects their output."""

    def __init__(self, args: argparse.Namespace, deadline: float) -> None:
        self.args = args
        self.deadline = deadline
        self.workdir = BUILD_DIR / "perfbench" / args.workload
        self.env = worker_env(self.workdir)

    def __call__(self, mode: str, seconds: float = 0.0) -> dict:
        command = [
            sys.executable, str(HERE / "worker.py"), mode,
            "--workload", self.args.workload,
            "--workdir", str(self.workdir),
            "--seconds", repr(seconds),
        ] + (["--toy"] if self.args.toy else [])
        try:
            process = subprocess.run(
                command, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as error:
            raise BenchmarkError(f"{mode} worker ran past the deadline") from error
        lines = process.stdout.strip().splitlines()
        if process.returncode != 0 or not lines:
            raise BenchmarkError(
                f"{mode} worker exited {process.returncode}: {process.stderr.strip()[-3000:]}"
            )
        return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def trajectories(runs: List[dict]) -> List[list]:
    return [[run["label"], run["interactions"], run["digest"]] for run in runs]


def failed_runs(one_pass: dict) -> int:
    """Runs that raised, ran out of budget or did not end with one leader."""
    return one_pass["attempted"] - sum(map(worker.elected, one_pass["runs"]))


def gate_pass(one_pass: dict, problems: List[str], what: str) -> None:
    problems.extend(f"{what}: {error}" for error in one_pass["errors"])
    for run in one_pass["runs"]:
        if not worker.elected(run):
            problems.append(
                f"{what}: {run['label']} converged={run['converged']} leaders={run['leaders']}"
            )
    if len(one_pass["runs"]) != one_pass["attempted"]:
        problems.append(f"{what}: {len(one_pass['runs'])} of {one_pass['attempted']} runs finished")
    for name, n, always_one in one_pass.get("rows", []):
        if always_one != "yes":
            problems.append(f"{what}: Table 1 row {name} n={n} is not 'always one leader'")


def gate_same(reference: List[dict], other: List[dict], problems: List[str], what: str) -> None:
    if trajectories(reference) != trajectories(other):
        problems.append(f"{what}: interactions or final counts differ from the reference pass")


def gate_resume(cold: dict, resume: dict, problems: List[str], what: str) -> None:
    """Every cell loads from the store and equals the cold pass's result
    (``run_s`` included: a recomputed cell would have a new wall clock)."""
    if resume["runs"] != cold["runs"]:
        problems.append(f"{what}: resumed results differ from the cold pass")
    if resume["loaded"] != cold["attempted"] or resume["stored"]:
        problems.append(
            f"{what}: resume loaded {resume['loaded']} of {cold['attempted']} cells "
            f"and stored {resume['stored']}"
        )


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_seconds(runs: List[dict]) -> float:
    """Summed ``RunResult.wall_clock_seconds``: time to leader, run by run."""
    return sum(run["run_s"] for run in runs)


def untraced(run: Runner, workload, problems: List[str], stamp: dict) -> dict:
    samples = [run("setup")["setup_s"] for _ in range(workload.setup_repeats)]
    measured = run("measure", run.args.seconds)
    samples.append(measured["setup_s"])
    passes = measured["passes"]
    for index, one_pass in enumerate(passes):
        gate_pass(one_pass, problems, f"pass {index}")
        gate_same(passes[0]["runs"], one_pass["runs"], problems, f"pass {index}")
    if "resume" in measured:
        gate_resume(passes[-1], measured["resume"], problems, "resume pass")
    attempted = sum(one_pass["attempted"] for one_pass in passes)
    failed = sum(failed_runs(one_pass) for one_pass in passes)
    run_s = [run_seconds(one_pass["runs"]) for one_pass in passes]
    rates = [
        sum(run["interactions"] for run in one_pass["runs"]) / seconds if seconds else 0.0
        for one_pass, seconds in zip(passes, run_s)
    ]
    stamp.update(
        resolved=measured["resolved"],
        workers=measured["workers"],
        setup_samples=samples,
        pass_s=[one_pass["pass_s"] for one_pass in passes],
        trajectories=trajectories(passes[0]["runs"]),
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(samples),
            "time_to_leader_s": statistics.median(run_s),
            "interactions_per_s": statistics.median(rates),
            "sweep_s": statistics.median(one_pass["pass_s"] for one_pass in passes),
            "peak_rss_mib": measured["peak_rss_kib"] / 1024.0,
            "success_share": (attempted - failed) / attempted,
        },
    }


def traced(run: Runner, workload, problems: List[str], stamp: dict) -> dict:
    traced_run = run("trace")
    full = traced_run["traced"]
    gate_pass(traced_run["reference"], problems, "reference pass")
    gate_pass(full, problems, "traced pass")
    # The reference pass may cover a subset of the traced pass's runs.
    by_label = {one["label"]: one for one in full["runs"]}
    untraced_runs = traced_run["reference"]["runs"]
    traced_runs = [by_label[one["label"]] for one in untraced_runs if one["label"] in by_label]
    gate_same(untraced_runs, traced_runs, problems, "traced pass")
    if traced_run["resolved"] not in traced_run["resolved_traced"]:
        problems.append(
            f"resolved engines {traced_run['resolved_traced']} traced, "
            f"{traced_run['resolved']} at setup"
        )
    layers = dict(traced_run["layers"])
    cells = cell_s_sum = utilisation = inflation = 0.0
    if "parallel" in traced_run:
        parallel = traced_run["parallel"]
        gate_pass(parallel, problems, "parallel pass")
        gate_same(full["runs"], parallel["runs"], problems, "parallel pass")
        gate_resume(full, traced_run["resume"], problems, "traced resume pass")
        if layers["experiments.store.hits"] != full["attempted"]:
            problems.append(f"traced resume pass hit {layers['experiments.store.hits']} cells")
        cells = len(parallel["runs"])
        cell_s_sum = run_seconds(parallel["runs"])
        utilisation = cell_s_sum / (traced_run["workers"] * parallel["pass_s"])
        inflation = cell_s_sum / run_seconds(full["runs"])
    layers.update({
        "engine.parallel.cells": cells,
        "engine.parallel.cell_s_sum": cell_s_sum,
        "engine.parallel.utilisation": utilisation,
        "engine.parallel.cell_inflation": inflation,
        "trace.overhead_ratio": run_seconds(traced_runs) / run_seconds(untraced_runs),
    })
    stamp.update(
        resolved=traced_run["resolved"],
        resolved_traced=traced_run["resolved_traced"],
        spans=traced_run["spans"],
        trajectories=trajectories(full["runs"]),
    )
    return {
        "attempted": full["attempted"],
        "failed": failed_runs(full),
        "metrics": layers,
    }


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        process = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = process.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    run = Runner(args, started + DEADLINE_S)
    workload = worker.workload_for(args.workload, args.toy)
    problems: List[str] = []
    try:
        warm = run("warm")
        stamp = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            **warm["workload"],
            "environment": warm["environment"],
            "kernel_compile_s": warm["compile_s"],
            **source_identity(),
        }
        outcome = (traced if args.trace else untraced)(run, workload, problems, stamp)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(outcome["metrics"]))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    stamp["problems"] = problems
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items() if name in outcome["metrics"]
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
