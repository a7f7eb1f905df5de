"""Cross-engine distributional equivalence tests (exact tier).

The three exact engines — :class:`SequentialEngine`, :class:`FastBatchEngine`
and :class:`CountBatchEngine` — implement the same
probabilistic model with different data structures, so the *distribution* of
any run statistic must agree across them.  The tests here pin that down on
five workloads: each engine produces a sample of convergence times over its
own disjoint range of seeds, and the samples are compared pairwise with a
two-sample KS test (:func:`repro.analysis.stats.ks_two_sample`, which falls
back to an asymptotic NumPy implementation when SciPy is unavailable) plus
the dependency-free quantile-profile distance.

The workload definitions and the sampling loop live in
:mod:`repro.analysis.accuracy`; this suite parametrises over all five of
its workloads.

Disjoint seed ranges matter: the fast-batch engine reproduces the sequential
engine's trajectories *bit for bit* for equal seeds (that stronger property
is covered in ``test_engine_fast_batch.py``), so equal seeds would make the
KS comparison trivially degenerate rather than a genuine two-sample test.
The count-batch engine consumes randomness through entirely different draws
(hypergeometric run batching), so for it the distributional comparison is
the *only* equivalence check available — which is exactly why it is in this
suite.

All tests are deterministic (fixed seed ranges), so the asserted p-value
thresholds cannot flake; the thresholds are generous (p > 0.01) because a
correct pair of engines produces a uniformly distributed p-value.  The
many-seed versions are marked ``slow`` and excluded from tier-1 runs (see
``pytest.ini``); run them with ``pytest -m slow``.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.analysis.accuracy import WORKLOADS, convergence_sample
from repro.analysis.stats import ks_two_sample, quantile_profile_distance
from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.protocols.epidemic import OneWayEpidemic

EXACT_ENGINES = (SequentialEngine, FastBatchEngine, CountBatchEngine)

#: The workloads every exact engine must agree on (all count-capable).
EXACT_WORKLOADS = (
    "epidemic",
    "exact-majority",
    "majority",
    "gsu19",
    "gsu19-closure",
)

#: Engine -> seed offset; disjoint ranges keep the samples independent.
_SEED_STRIDE = 100_000


def _samples_by_engine(workload: str, n: int, repetitions: int) -> Dict[str, List[float]]:
    return {
        engine_cls.__name__: convergence_sample(
            engine_cls,
            workload,
            n,
            range(index * _SEED_STRIDE, index * _SEED_STRIDE + repetitions),
        )
        for index, engine_cls in enumerate(EXACT_ENGINES)
    }


# ----------------------------------------------------------------------
# Tier-1 sanity check: few seeds, coarse thresholds, runs in seconds.
# ----------------------------------------------------------------------

#: Per-workload quantile-distance bound for the 24-seed sanity check.  The
#: gamma=4 clock of the closure-registered calibration has a much wider
#: convergence-time spread (the sequential engine's *self*-distance across
#: disjoint seed ranges reaches ~1.0 there at this sample size), so its
#: bound is proportionally looser; the strict check is the 80-seed KS test
#: in the slow suite, where all its engines sit at p = 0.7-0.98.
_QUANTILE_BOUNDS = {"gsu19-closure": 3.0}


@pytest.mark.parametrize("workload", sorted(EXACT_WORKLOADS))
def test_engines_agree_on_quantile_profiles(workload):
    samples = _samples_by_engine(workload, n=64, repetitions=24)
    reference = samples["SequentialEngine"]
    bound = _QUANTILE_BOUNDS.get(workload, 1.5)
    for name, sample in samples.items():
        assert len(sample) == 24
        assert quantile_profile_distance(reference, sample) < bound, (
            f"{name} convergence-time quantiles drifted from the sequential "
            f"reference on {workload}"
        )


# ----------------------------------------------------------------------
# The full statistical suite: many seeds, proper KS comparison.
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(EXACT_WORKLOADS))
def test_cross_engine_ks_equivalence(workload):
    """Pairwise two-sample KS test over 80 seeds per engine at n = 128.

    With exact engines the p-value is uniform on [0, 1]; the fixed seed
    ranges below were checked to land comfortably above the 0.01 threshold,
    so the assertion is deterministic, not flaky.  A genuinely broken engine
    (e.g. a collision mishandled by a batched one) shifts convergence
    times by several percent and drives the p-value to ~0 at this sample
    size.
    """
    samples = _samples_by_engine(workload, n=128, repetitions=80)
    names = sorted(samples)
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            outcome = ks_two_sample(samples[first], samples[second])
            assert outcome.pvalue > 0.01, (
                f"{first} vs {second} on {workload}: KS statistic "
                f"{outcome.statistic:.3f}, p={outcome.pvalue:.4f}"
            )
            assert quantile_profile_distance(samples[first], samples[second]) < 1.0


@pytest.mark.slow
def test_fast_batch_small_block_is_still_exact_in_distribution():
    """Small chunks (24 interactions per check, with the NumPy wave path
    forced) at n = 96 keep intra-chunk collisions frequent, so most chunks
    run several dependency waves; the sampled convergence-time
    distribution must still match the sequential engine's."""
    epidemic_done = WORKLOADS["epidemic"].predicate
    reference = convergence_sample(
        SequentialEngine, "epidemic", 96, range(500, 580), check_every=24
    )
    batched: List[float] = []
    for seed in range(600, 680):
        engine = FastBatchEngine(OneWayEpidemic(), 96, rng=seed, kernel="numpy")
        assert engine.run_until(
            epidemic_done, max_interactions=400 * 96, check_every=24
        )
        batched.append(float(engine.interactions))
    outcome = ks_two_sample(reference, batched)
    assert outcome.pvalue > 0.01, (
        f"small-block fast batch drifted: D={outcome.statistic:.3f}, "
        f"p={outcome.pvalue:.4f}"
    )
