"""Benchmark / regeneration target for the paper's Figure 1 (coin levels).

Regenerates the coin-level census series and asserts the shape: level
populations decay geometrically and the level-0 population is about a
quarter of the agents.
"""

from __future__ import annotations

from repro.core.protocol import GSULeaderElection
from repro.engine.parallel import run_cells
from repro.experiments.figure1 import _coin_census, _preprocessing_settled, run_figure1
from repro.experiments.runner import metric_recorders


def test_figure1_experiment(benchmark, smoke_config):
    """Regenerate Figure 1 (coin level populations and biases) at smoke size."""
    result = benchmark.pedantic(run_figure1, args=(smoke_config,), iterations=1, rounds=1)
    rows = result.table("coin levels").rows
    assert rows
    # For each n the measured C_l column is non-increasing in the level.
    by_n = {}
    for row in rows:
        by_n.setdefault(row[0], []).append(float(row[2]))
    for series in by_n.values():
        assert all(later <= earlier for earlier, later in zip(series, series[1:]))


def test_bench_coin_preprocessing_census(benchmark):
    """Time a single coin-preprocessing run plus census (the Figure 1 kernel),
    as one sweep cell."""
    n = 512

    def kernel():
        (point,) = run_cells(
            GSULeaderElection.for_population,
            n,
            [3],
            max_parallel_time=4000,
            convergence_factory=_preprocessing_settled,
            recorder_factory=metric_recorders(_coin_census),
        )
        return point.recorders[0].last()

    observation = benchmark(kernel)
    assert 0.15 * n < observation.total_coins < 0.35 * n
    assert observation.junta_size >= 1
