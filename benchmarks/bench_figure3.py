"""Benchmark / regeneration target for the paper's Figure 3 (drag counter).

Regenerates the drag-tick-interval series and the inhibitor drag-group
census, asserting Lemma 7.1's geometric group sizes (the tick-interval
growth itself needs larger populations than the smoke preset to show up
reliably; run ``--preset default`` through the CLI, as README shows).
"""

from __future__ import annotations

from repro.core.monitor import inhibitor_drag_census
from repro.core.protocol import GSULeaderElection
from repro.engine.parallel import run_cells
from repro.experiments.figure3 import run_figure3
from repro.experiments.runner import metric_recorders, never_converge


def test_figure3_experiment(benchmark, tiny_config):
    """Regenerate Figure 3 (drag ticks + inhibitor groups) at smoke size."""
    result = benchmark.pedantic(run_figure3, args=(tiny_config,), iterations=1, rounds=1)
    groups = result.table("inhibitor drag groups (Lemma 7.1)").rows
    assert groups
    # Group sizes decay with the drag value for every population size.
    by_n = {}
    for row in groups:
        by_n.setdefault(row[0], []).append((row[1], float(row[2])))
    for points in by_n.values():
        ordered = [value for _, value in sorted(points)]
        assert all(later <= earlier for earlier, later in zip(ordered, ordered[1:]))


def test_bench_inhibitor_group_measurement(benchmark):
    """Time the inhibitor drag-group measurement kernel: one sweep cell run
    for 200 parallel time in one chunk, then the drag census."""
    n = 512

    def kernel():
        (point,) = run_cells(
            GSULeaderElection.for_population,
            n,
            [5],
            max_parallel_time=200.0,
            convergence_factory=never_converge,
            recorder_factory=metric_recorders(inhibitor_drag_census),
            check_every=200 * n,
        )
        return point.recorders[0].last()

    census = benchmark(kernel)
    assert sum(census.values()) > 0
    assert census.get(0, 0) >= census.get(1, 0)
