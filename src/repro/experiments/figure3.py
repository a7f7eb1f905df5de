"""Experiment ``figure3`` — the slowing-down drag counter (Figure 3).

Figure 3 of the paper illustrates the drag-counter mechanism: an active
leader of drag ``i`` elevates the drag-``i`` inhibitor sub-group, whose
one-way epidemic takes ``≈ 4^i n log n`` interactions, after which the
leader advances to drag ``i+1``.  This experiment runs the full protocol
with a :class:`~repro.core.monitor.DragTickTracker` attached and reports:

* the measured parallel time ``T_ℓ`` between the first appearances of drag
  ``ℓ`` and drag ``ℓ+1`` among leaders, against the predicted geometric
  growth ``T_ℓ ∝ 4^ℓ`` (Lemma 7.2);
* the measured inhibitor sub-group sizes ``D_ℓ`` against the prediction
  ``(n/4)·4^{-ℓ}`` of Lemma 7.1.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.stats import summarize
from repro.core.monitor import DragTickTracker, inhibitor_drag_census
from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.core.theory import predicted_drag_group_sizes
from repro.engine.parallel import run_cells
from repro.engine.rng import spawn_seeds
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ExperimentResult,
    metric_recorders,
    never_converge,
    timed,
)

__all__ = ["run_figure3"]


def _drag_trackers() -> List[DragTickTracker]:
    """Recorder factory of one cell (module-level: sweep workers pickle it)."""
    return [DragTickTracker()]


@timed
def run_figure3(config: ExperimentConfig) -> ExperimentResult:
    """Run the Figure 3 experiment under ``config``."""
    result = ExperimentResult(
        experiment="figure3",
        description=(
            "Drag-counter tick intervals T_l (parallel time between the first "
            "appearance of consecutive drag values among leaders) versus the "
            "predicted 4^l growth, and inhibitor drag-group sizes versus "
            "Lemma 7.1."
        ),
    )
    ticks_table = result.add_table(
        "drag tick intervals (Lemma 7.2)",
        [
            "n",
            "drag l",
            "measured T_l (mean parallel time)",
            "T_l / T_0 (measured)",
            "4^l (predicted ratio)",
            "samples",
        ],
    )
    groups_table = result.add_table(
        "inhibitor drag groups (Lemma 7.1)",
        ["n", "drag l", "measured D_l (mean)", "predicted D_l"],
    )

    repetitions = config.repetitions
    seeds = spawn_seeds(config.base_seed + 3, len(config.population_sizes) * repetitions)
    for index, n in enumerate(config.population_sizes):
        tick_samples: Dict[int, List[float]] = {}
        group_samples: Dict[int, List[int]] = {}
        points = run_cells(
            GSULeaderElection.for_population,
            n,
            seeds[index * repetitions : (index + 1) * repetitions],
            max_parallel_time=config.max_parallel_time,
            recorder_factory=_drag_trackers,
            check_every=max(1, n // 2),
            engine=config.engine,
            workers=config.workers,
        )
        for point in points:
            for level, interval in point.recorders[0].tick_intervals().items():
                tick_samples.setdefault(level, []).append(interval)
        # Lemma 7.1's D_l: the drag census once inhibitor preprocessing
        # has settled, from one chunk of the whole horizon per seed.
        horizon = min(200.0, config.max_parallel_time)
        censuses = run_cells(
            GSULeaderElection.for_population,
            n,
            [point.seed + 1 for point in points],
            max_parallel_time=horizon,
            convergence_factory=never_converge,
            recorder_factory=metric_recorders(inhibitor_drag_census),
            check_every=int(round(horizon * n)),
            engine=config.engine,
            workers=config.workers,
        )
        for census in censuses:
            for level, count in census.recorders[0].last().items():
                group_samples.setdefault(level, []).append(count)

        baseline = None
        for level in sorted(tick_samples):
            measured = summarize(tick_samples[level])
            if baseline is None and measured.mean > 0:
                baseline = measured.mean
            ratio = measured.mean / baseline if baseline else float("nan")
            ticks_table.add_row(
                n,
                level,
                f"{measured.mean:.1f}",
                f"{ratio:.2f}",
                f"{4.0 ** level:.0f}",
                measured.count,
            )
        psi = GSUParams.from_population_size(n).psi
        predicted_groups = predicted_drag_group_sizes(n, psi)
        for level in sorted(group_samples):
            measured = summarize(group_samples[level])
            predicted = (
                predicted_groups[level]
                if level < len(predicted_groups)
                else float("nan")
            )
            groups_table.add_row(n, level, f"{measured.mean:.1f}", f"{predicted:.1f}")
    result.metadata.update(
        {
            "population_sizes": list(config.population_sizes),
            "repetitions": config.repetitions,
        }
    )
    return result
