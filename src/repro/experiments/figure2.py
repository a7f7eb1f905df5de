"""Experiment ``figure2`` — the fast-elimination pipeline (Figure 2).

Figure 2 of the paper sketches how the pool of *active* leader candidates
shrinks as the asymmetric coins are applied: ``≈ n/2`` initially, ``≈ n^a``
after the four uses of coin ``Φ``, then repeatedly square-rooted down to
``c·log n`` by the remaining coins.  This experiment runs the full protocol
with a :class:`~repro.core.monitor.FastEliminationTracker` attached, records
the number of active candidates remaining at the last observation of each
round-counter value ``cnt``, and reports it against the idealised reduction
computed from the measured coin biases.

Two claims are checked quantitatively:

* after the whole schedule, the number of active candidates is ``O(log n)``
  (Lemma 6.2) — the table reports the ratio to ``log₂ n``;
* at no point does the number of active candidates drop to zero.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.stats import summarize
from repro.coins.biased import expected_level_counts
from repro.core.monitor import FastEliminationTracker
from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, sweep, timed

__all__ = ["run_figure2", "idealised_survivor_series"]


def idealised_survivor_series(n: int, params: GSUParams) -> Dict[int, float]:
    """The idealised number of active candidates after each coin application.

    Starting from ``n/2`` candidates, each application of the coin scheduled
    at counter value ``cnt`` multiplies the count by that coin's heads
    probability ``q = C_level/n`` (floored at 1), using the idealised
    ``C_level`` from the level-count recursion.
    """
    level_counts = expected_level_counts(n, params.phi, coin_fraction=0.25)
    series: Dict[int, float] = {}
    survivors = n / 2.0
    for cnt in range(params.coin_schedule_length, 0, -1):
        level = params.coin_level_for_cnt(cnt)
        q = level_counts[level] / n
        survivors = max(1.0, survivors * q)
        series[cnt] = survivors
    return series


def _fast_elimination_trackers() -> List[FastEliminationTracker]:
    """Recorder factory of one cell (module-level: sweep workers pickle it)."""
    return [FastEliminationTracker()]


@timed
def run_figure2(config: ExperimentConfig) -> ExperimentResult:
    """Run the Figure 2 experiment under ``config``."""
    result = ExperimentResult(
        experiment="figure2",
        description=(
            "Active leader candidates remaining after each biased-coin "
            "application of the fast-elimination epoch, versus the idealised "
            "reduction; end-of-epoch counts compared against O(log n)."
        ),
    )
    series_table = result.add_table(
        "survivors per coin application",
        [
            "n",
            "cnt",
            "coin level",
            "measured active (mean)",
            "idealised active",
        ],
    )
    end_table = result.add_table(
        "end of fast elimination (Lemma 6.2)",
        [
            "n",
            "active after schedule (mean)",
            "log2 n",
            "ratio",
            "never zero alive",
        ],
    )

    for n in config.population_sizes:
        cells = sweep(
            GSULeaderElection.for_population,
            [n],
            repetitions=config.repetitions,
            base_seed=config.base_seed + n,
            max_parallel_time=config.max_parallel_time,
            recorder_factory=_fast_elimination_trackers,
            check_every=max(1, n // 2),
            engine=config.engine,
            workers=config.workers,
        )
        params = GSUParams.from_population_size(n)
        idealised = idealised_survivor_series(n, params)
        per_cnt: Dict[int, List[int]] = {}
        end_counts: List[int] = []
        never_zero = True
        for _, recorders in cells[n]:
            tracker: FastEliminationTracker = recorders[0]
            survivors = tracker.survivors_per_cnt()
            for cnt, active in survivors.items():
                if 0 < cnt <= params.coin_schedule_length:
                    per_cnt.setdefault(cnt, []).append(active)
            schedule_counts = [
                active
                for cnt, active in survivors.items()
                if 0 < cnt <= params.coin_schedule_length
            ]
            if survivors.get(1) is not None:
                end_counts.append(survivors[1])
            elif schedule_counts:
                end_counts.append(schedule_counts[-1])
            else:
                # Small populations can finish their elimination between
                # two check points; fall back to the smallest positive
                # active count observed, which upper-bounds the count at
                # the end of the schedule.
                positive = [c for c in tracker.active_counts if c > 0]
                if positive:
                    end_counts.append(min(positive))
            # The Las Vegas guarantee (Lemma 8.1): once leader candidates
            # exist, the number of *alive* candidates (active or passive)
            # never returns to zero.  Checks before the first candidate is
            # created (the very start of the run) are excluded.
            alive_series = tracker.alive_counts
            first_candidate = next(
                (index for index, count in enumerate(alive_series) if count > 0),
                None,
            )
            if first_candidate is not None and any(
                count == 0 for count in alive_series[first_candidate:]
            ):
                never_zero = False

        for cnt in sorted(per_cnt, reverse=True):
            measured = summarize(per_cnt[cnt])
            series_table.add_row(
                n,
                cnt,
                params.coin_level_for_cnt(cnt),
                f"{measured.mean:.1f}",
                f"{idealised.get(cnt, float('nan')):.1f}",
            )
        if end_counts:
            import math

            end_summary = summarize(end_counts)
            log_n = math.log2(n)
            end_table.add_row(
                n,
                f"{end_summary.mean:.1f}",
                f"{log_n:.1f}",
                f"{end_summary.mean / log_n:.2f}",
                "yes" if never_zero else "NO",
            )
    result.metadata.update(
        {
            "population_sizes": list(config.population_sizes),
            "repetitions": config.repetitions,
        }
    )
    return result
