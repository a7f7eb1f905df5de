"""Command-line interface.

Run the reproduction experiments from a terminal::

    python -m repro.cli list
    python -m repro.cli run figure1 --preset smoke
    python -m repro.cli run table1 --preset default --output results/
    python -m repro.cli run-all --preset smoke

The ``--preset`` option selects one of the
:class:`~repro.experiments.config.ExperimentConfig` presets (``smoke``,
``default``, ``large``, ``headline``, ``extreme``); individual sweep
parameters can be overridden with ``--sizes``, ``--repetitions`` and
``--budget``.  ``--engine`` picks the simulation engine — ``sequential``,
``fastbatch`` or ``countbatch``, all exact — or ``auto``, which dispatches
on population size to the fastest of them; see the engine selection guide in
:mod:`repro.engine`.  The ``headline`` preset is the ``n = 10^7``/``10^8``
GSU19 count-space tier on ``auto`` dispatch (count-space simulation at
``10^8``; at most about 30 minutes per seed at ``10^7``, ``10^8``
unmeasured); ``extreme`` is the trillion-agent
count-space tier (``n = 10^12`` through the compiled count kernel, under
1 GiB peak memory)::

    python -m repro.cli run table1 --preset headline
    python -m repro.cli run table1 --preset extreme --budget 5

Long campaigns are made restartable with the on-disk experiment store:
``--store DIR`` persists every completed experiment under a content hash of
``(experiment, configuration)``, and adding ``--resume`` makes a rerun load
completed experiments from the store and execute only the missing ones —
so a crashed ``run-all`` picks up where it left off::

    python -m repro.cli run-all --preset default --store results/store --resume
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.engine.dispatch import ENGINE_NAMES
from repro.experiments.config import ExperimentConfig
from repro.experiments.io import write_result
from repro.experiments.registry import available_experiments, run_experiment
from repro.viz.report import render_report

__all__ = ["main", "build_parser", "config_from_args"]

_PRESETS = {
    "smoke": ExperimentConfig.smoke,
    "default": ExperimentConfig.default,
    "large": ExperimentConfig.large,
    "headline": ExperimentConfig.headline,
    "extreme": ExperimentConfig.extreme,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduction experiments for 'Almost Logarithmic-Time Space Optimal "
            "Leader Election in Population Protocols' (SPAA 2019)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--preset",
            choices=sorted(_PRESETS),
            default="smoke",
            help="experiment configuration preset (default: smoke)",
        )
        sub.add_argument(
            "--sizes",
            type=int,
            nargs="+",
            default=None,
            help="override the population sizes to sweep",
        )
        sub.add_argument(
            "--repetitions",
            type=int,
            default=None,
            help="override the number of seeds per population size",
        )
        sub.add_argument(
            "--budget",
            type=float,
            default=None,
            help="override the per-run parallel-time budget",
        )
        sub.add_argument(
            "--engine",
            choices=list(ENGINE_NAMES),
            default=None,
            help=(
                "simulation engine to run on (default: the preset's engine, "
                "i.e. sequential); 'auto' dispatches per population size"
            ),
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="K",
            help=(
                "worker processes for the sweep scheduler (default: the "
                "preset's setting, i.e. serial); results are bit-identical "
                "at every worker count"
            ),
        )
        sub.add_argument(
            "--output",
            type=str,
            default=None,
            help="directory to write CSV/JSON/markdown results to",
        )
        sub.add_argument(
            "--store",
            type=str,
            default=None,
            metavar="DIR",
            help=(
                "on-disk experiment store: completed experiments are "
                "persisted here under a content hash of (experiment, "
                "configuration)"
            ),
        )
        sub.add_argument(
            "--resume",
            action="store_true",
            help=(
                "with --store, load experiments already completed under this "
                "exact configuration instead of re-running them"
            ),
        )
        sub.add_argument(
            "--no-charts",
            action="store_true",
            help="do not print ASCII charts",
        )

    run_parser = subparsers.add_parser("run", help="run a single experiment")
    run_parser.add_argument("experiment", choices=available_experiments())
    add_common(run_parser)

    run_all_parser = subparsers.add_parser("run-all", help="run every experiment")
    add_common(run_all_parser)

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from parsed CLI arguments."""
    config = _PRESETS[args.preset]()
    if args.sizes:
        config = config.with_sizes(args.sizes)
    if args.repetitions:
        config = config.with_repetitions(args.repetitions)
    if args.budget:
        config = replace(config, max_parallel_time=args.budget)
    if getattr(args, "engine", None):
        config = config.with_engine(args.engine)
    if getattr(args, "workers", None):
        config = config.with_workers(args.workers)
    return config


def _run_one(name: str, config: ExperimentConfig, args: argparse.Namespace) -> None:
    result = run_experiment(
        name, config, store=args.store, resume=args.resume
    )
    if result.metadata.get("loaded_from_store"):
        print(f"[{name}: loaded completed result from store {args.store}]\n")
    print(render_report(result, charts=not args.no_charts))
    if args.output:
        directory = write_result(result, args.output)
        print(f"\nresults written to {directory}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.command == "list":
        for name in available_experiments():
            print(name)
        return 0

    if getattr(args, "resume", False) and not getattr(args, "store", None):
        parser.error("--resume requires --store DIR")
    config = config_from_args(args)
    if args.command == "run":
        _run_one(args.experiment, config, args)
        return 0
    if args.command == "run-all":
        for name in available_experiments():
            _run_one(name, config, args)
            print("\n" + "=" * 72 + "\n")
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
