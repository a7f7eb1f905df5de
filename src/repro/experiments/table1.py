"""Experiment ``table1`` — the paper's Table 1, measured.

Table 1 of the paper lists leader-election protocols by their state and time
complexity.  Four of those regimes are simulable with the protocols in this
library; we measure, for each protocol and population size, the parallel
convergence time and the number of distinct states agents actually used:

* ``slow-leader-election`` — 2 states, ``Θ(n)`` expected time (AAD+04),
* ``lottery-leader-election`` — ``O(log n)`` states, ``Θ(n)`` expected time
  (no clock/broadcast structure),
* ``gs18-leader-election``  — ``O(log log n)``-style states, ``O(log² n)``
  time (the protocol the paper improves upon),
* ``gsu19-leader-election`` — ``O(log log n)`` states,
  ``O(log n · log log n)`` expected time (this paper).

The report contains (a) the per-(protocol, n) measurements, (b) growth-model
fits of the mean time against ``log n``, ``log n log log n``, ``log² n`` and
``n``, and (c) the paper's original asymptotic rows for reference — including
the rows we cannot measure because those protocols are defined only
asymptotically (AG15, AAE+17, BCER17, AAG18, BKKO18, SOI+18).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from repro.analysis.scaling import rank_models
from repro.analysis.stats import summarize
from repro.core.protocol import GSULeaderElection
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, sweep, timed
from repro.protocols.gs18 import GS18LeaderElection
from repro.protocols.lottery import LotteryLeaderElection
from repro.protocols.slow import SlowLeaderElection

__all__ = ["run_table1", "PAPER_TABLE1_ROWS", "SIMULATED_PROTOCOLS"]

#: The asymptotic rows of the paper's Table 1 (for side-by-side reporting).
PAPER_TABLE1_ROWS = [
    ("AG15", "O(log^3 n)", "O(log^3 n) expected / O(log^4 n) whp"),
    ("AAE+17", "O(log^2 n)", "O(log^5.3 n loglog n) expected / O(log^6.3 n) whp"),
    ("BCER17", "O(log^2 n)", "O(log^2 n) whp"),
    ("AAG18", "O(log n)", "O(log^2 n) expected"),
    ("BKKO18", "O(log n)", "O(log^2 n) whp"),
    ("GS18", "O(loglog n)", "O(log^2 n) whp"),
    ("This work (GSU19)", "O(loglog n)", "O(log n loglog n) expected"),
    ("SOI+18", "O(log n)", "O(log n) expected"),
]


def _slow(n: int) -> SlowLeaderElection:
    return SlowLeaderElection()


def _calibrated(cls, n: int):
    return cls.for_population(n)


#: Protocols simulated for the measured half of the table, with the factory
#: used to build them and whether they are Θ(n)-time (and therefore capped to
#: ``ExperimentConfig.slow_protocol_max_n``).  The factories are module-level
#: functions and partials, never lambdas: process-pool sweep workers pickle
#: them.
SIMULATED_PROTOCOLS: List[tuple] = [
    ("slow-leader-election", _slow, True),
    ("lottery-leader-election", partial(_calibrated, LotteryLeaderElection), True),
    ("gs18-leader-election", partial(_calibrated, GS18LeaderElection), False),
    ("gsu19-leader-election", partial(_calibrated, GSULeaderElection), False),
]


@timed
def run_table1(config: ExperimentConfig) -> ExperimentResult:
    """Run the Table 1 experiment under ``config``."""
    result = ExperimentResult(
        experiment="table1",
        description=(
            "Measured parallel convergence time and observed state usage for "
            "the simulable rows of the paper's Table 1, plus growth-model "
            "fits of time against n."
        ),
    )
    measured = result.add_table(
        "measured",
        [
            "protocol",
            "n",
            "runs",
            "parallel time (mean ± se)",
            "parallel time (median)",
            "states used (mean)",
            "always one leader",
        ],
    )
    fits = result.add_table(
        "growth fits",
        ["protocol", "best model", "constant", "relative RMS", "runner-up"],
    )
    reference = result.add_table(
        "paper reference (asymptotic)",
        ["protocol", "states", "time"],
    )
    for name, states, time_bound in PAPER_TABLE1_ROWS:
        reference.add_row(name, states, time_bound)

    summary_points: Dict[str, List[tuple]] = {}
    for name, factory, is_slow in SIMULATED_PROTOCOLS:
        sizes = (
            config.sizes_capped(config.slow_protocol_max_n)
            if is_slow
            else list(config.population_sizes)
        )
        cells = sweep(
            factory,
            sizes,
            repetitions=config.repetitions,
            base_seed=config.base_seed,
            max_parallel_time=config.max_parallel_time,
            engine=config.engine,
            workers=config.workers,
        )
        for n, outcomes in cells.items():
            times = [run.parallel_time for run, _ in outcomes]
            states = [run.states_used for run, _ in outcomes]
            leaders_ok = all(
                run.converged and run.leader_count == 1 for run, _ in outcomes
            )
            time_summary = summarize(times)
            state_summary = summarize(states)
            measured.add_row(
                name,
                n,
                len(outcomes),
                time_summary.format(1),
                f"{time_summary.median:.1f}",
                f"{state_summary.mean:.1f}",
                "yes" if leaders_ok else "NO",
            )
            summary_points.setdefault(name, []).append((n, time_summary.mean))

    for name, points in summary_points.items():
        if len(points) < 2:
            continue
        ns = [n for n, _ in points]
        times = [t for _, t in points]
        ranking = rank_models(ns, times, ("log", "log_loglog", "log2", "linear"))
        best, runner_up = ranking[0], ranking[1]
        fits.add_row(
            name,
            best.model.description,
            f"{best.constant:.2f}",
            f"{best.relative_rms:.1%}",
            f"{runner_up.model.description} ({runner_up.relative_rms:.1%})",
        )

    result.metadata.update(
        {
            "population_sizes": list(config.population_sizes),
            "repetitions": config.repetitions,
            "max_parallel_time": config.max_parallel_time,
        }
    )
    return result
