#!/usr/bin/env python
"""Regenerate every table and figure of the paper in one go.

This is a thin convenience wrapper around the experiment harness: it runs all
registered experiments (Table 1, Figures 1–3, the lemma checks and the
phase-clock validation) at a chosen preset and writes the reports to an
output directory — the pipeline behind README's experiment table.

Run with::

    python examples/reproduce_paper.py --preset smoke --output results/
    python examples/reproduce_paper.py --preset default --output results/   # longer
"""

from __future__ import annotations

import argparse

from repro.experiments import available_experiments, run_experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.io import write_result
from repro.viz.report import render_report

_PRESETS = {
    "smoke": ExperimentConfig.smoke,
    "default": ExperimentConfig.default,
    "large": ExperimentConfig.large,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(_PRESETS), default="smoke")
    parser.add_argument("--output", default=None, help="directory for CSV/JSON/markdown results")
    parser.add_argument("--only", nargs="+", default=None, help="subset of experiment ids to run")
    args = parser.parse_args()

    config = _PRESETS[args.preset]()
    names = args.only if args.only else available_experiments()
    for name in names:
        print(f"\n{'=' * 72}\nrunning {name} ({args.preset} preset)\n{'=' * 72}")
        result = run_experiment(name, config)
        print(render_report(result, charts=False))
        if args.output:
            directory = write_result(result, args.output)
            print(f"written to {directory}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
