"""Benchmark / regeneration targets for the lemma-level experiments
(Lemmas 4.1, 5.3, 7.1 and 7.3)."""

from __future__ import annotations

import math

from repro.experiments.lemmas import (
    run_lemma41,
    run_lemma53,
    run_lemma71,
    run_lemma73,
    simulate_final_elimination_rounds,
)
from repro.engine.rng import make_rng


def test_lemma41_experiment(benchmark, smoke_config):
    """Lemma 4.1: uninitialised agents are a vanishing fraction of n."""
    result = benchmark.pedantic(run_lemma41, args=(smoke_config,), iterations=1, rounds=1)
    rows = result.table("uninitialised agents").rows
    assert rows
    # The deactivated fraction is far below 1 (the lemma's O(1/log n)).
    assert all(float(row[2]) < 0.2 for row in rows)


def test_lemma53_experiment(benchmark, smoke_config):
    """Lemma 5.3: the junta is tiny but non-empty (the literal [n^0.45,
    n^0.77] window needs n ≥ ~1024)."""
    result = benchmark.pedantic(run_lemma53, args=(smoke_config,), iterations=1, rounds=1)
    rows = result.table("junta size").rows
    assert rows
    for row in rows:
        n = int(row[0])
        junta_mean = float(row[1])
        assert 1 <= junta_mean < 0.3 * n


def test_lemma71_experiment(benchmark, smoke_config):
    """Lemma 7.1: inhibitor drag groups shrink geometrically."""
    result = benchmark.pedantic(run_lemma71, args=(smoke_config,), iterations=1, rounds=1)
    rows = result.table("drag groups").rows
    assert rows
    by_n = {}
    for row in rows:
        by_n.setdefault(row[0], []).append((row[1], float(row[2])))
    for points in by_n.values():
        ordered = [value for _, value in sorted(points)]
        assert all(later <= earlier for earlier, later in zip(ordered, ordered[1:]))


def test_lemma73_experiment(benchmark, smoke_config):
    """Lemma 7.3: O(log log n) expected final-elimination rounds."""
    result = benchmark.pedantic(run_lemma73, args=(smoke_config,), iterations=1, rounds=1)
    rows = result.table("rounds to a single candidate").rows
    assert rows
    for row in rows:
        n = int(row[0])
        mean_rounds = float(row[2])
        # Far below the explicit log_{6/5}(c log n) bound of the lemma.
        bound = math.log(2 * math.log2(n)) / math.log(6 / 5)
        assert mean_rounds < bound


def test_bench_final_elimination_monte_carlo(benchmark):
    """Time the abstract final-elimination Monte-Carlo kernel."""
    rng = make_rng(7)

    def kernel():
        return [simulate_final_elimination_rounds(24, 0.25, rng) for _ in range(500)]

    rounds = benchmark(kernel)
    assert sum(rounds) / len(rounds) < 25
