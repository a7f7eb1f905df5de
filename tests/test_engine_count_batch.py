"""Tests for the exact-in-distribution configuration-space batched engine.

The distributional agreement with the sequential reference is pinned by the
cross-engine KS suite (``test_engine_equivalence.py``); the tests here cover
the engine's own invariants (conservation, interaction accounting, run
truncation, occupancy tracking), an *exact* single-interaction probability
check against enumerated pair probabilities, and the ``O(k)``-memory
construction path through ``initial_counts``.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from test_engine_layout_invariance import _lazy

from repro.coins.synthetic import ParityCoinProtocol
from repro.core.protocol import GSULeaderElection
from repro.engine._count_kernel import _split, seed_kernel_rng
from repro.engine.count_batch import CountBatchEngine
from repro.engine.protocol import initial_count_items
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import make_rng
from repro.errors import ConfigurationError, ProtocolError
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.slow import SlowLeaderElection


def test_rejects_population_of_one():
    with pytest.raises(ConfigurationError):
        CountBatchEngine(OneWayEpidemic(), 1)


def test_initial_counts_match_configuration():
    engine = CountBatchEngine(ApproximateMajority(initial_a_fraction=0.75), 100, rng=0)
    counts = engine.state_counts()
    assert counts == {"A": 75, "B": 25}
    assert engine.interactions == 0


def test_population_conserved_and_counts_non_negative():
    engine = CountBatchEngine(ApproximateMajority(initial_a_fraction=0.6), 5000, rng=2)
    for _ in range(5):
        engine.run(40_000)
        counts = engine.state_counts()
        assert all(count > 0 for count in counts.values())
        assert sum(counts.values()) == 5000


def test_interaction_accounting_is_exact():
    """Batches are truncated to the requested budget, so every run length —
    including single steps and remainders smaller than a collision-free run —
    is honoured exactly."""
    engine = CountBatchEngine(OneWayEpidemic(), 1000, rng=1)
    engine.step()
    assert engine.interactions == 1
    engine.run(7)
    assert engine.interactions == 8
    engine.run(12_344)
    assert engine.interactions == 12_352
    assert engine.parallel_time == pytest.approx(12.352)


def test_single_interaction_distribution_is_exact():
    """With 3 informed and 1 susceptible agent out of n=4, the probability
    that the single susceptible agent learns the rumour in ONE interaction is
    exactly P(responder=susceptible, initiator=informed) = (1*3)/(4*3) = 1/4.
    20k trials put a 3-sigma band of ~0.009 around it."""
    hits = 0
    trials = 20_000
    for seed in range(trials):
        engine = CountBatchEngine(OneWayEpidemic(sources=3), 4, rng=seed)
        engine.run(1)
        if engine.count_of("susceptible") == 0:
            hits += 1
    assert abs(hits / trials - 0.25) < 0.01


def test_same_seed_reproducible():
    a = CountBatchEngine(SlowLeaderElection(), 256, rng=11)
    b = CountBatchEngine(SlowLeaderElection(), 256, rng=11)
    a.run(5_000)
    b.run(5_000)
    assert a.state_counts() == b.state_counts()
    assert a.interactions == b.interactions


def test_epidemic_completes():
    engine = CountBatchEngine(OneWayEpidemic(sources=1), 1 << 14, rng=3)
    engine.run_parallel_time(60)
    assert engine.count_of("susceptible") == 0
    assert engine.states_ever_occupied == 2


def test_tiny_populations_are_exact_edges():
    # n=2: every batch is a single forced pair of the two agents, whose
    # orientation decides the outcome.  The outcome pins are seed-specific
    # (the count stream, on its Python implementation here); seeds 0 and
    # 1 draw the two orientations.
    for seed, outcome in ((0, {"informed": 1, "susceptible": 1}), (1, {"informed": 2})):
        engine = CountBatchEngine(OneWayEpidemic(), 2, rng=seed, kernel="python")
        engine.run(1)
        assert engine.state_counts() == outcome
    # n=3 keeps the survival curve at a single entry as well.
    engine = CountBatchEngine(OneWayEpidemic(), 3, rng=0, kernel="python")
    engine.run(50)
    assert engine.count_of("susceptible") == 0


def test_leader_count_monotone_on_slow_protocol():
    engine = CountBatchEngine(SlowLeaderElection(), 512, rng=5)
    previous = engine.count_of("L")
    for _ in range(20):
        engine.run(2_000)
        current = engine.count_of("L")
        assert 1 <= current <= previous
        previous = current


def test_refuses_protocols_without_a_complete_table():
    """Count space runs only on a complete transition table: a protocol
    that declares no closure (GSU19 with its closure hidden, the parity
    coin) is refused by name, not discovered lazily."""
    for protocol in (_lazy(GSULeaderElection.for_population(256)), ParityCoinProtocol()):
        message = f"protocol {protocol.name!r} declares no state closure"
        with pytest.raises(ProtocolError, match=re.escape(message)):
            CountBatchEngine(protocol, 256, rng=7)


def test_counts_by_output_matches_generic_aggregation():
    engine = CountBatchEngine(SlowLeaderElection(), 128, rng=9)
    engine.run(3_000)
    outputs = engine.counts_by_output()
    assert outputs["L"] + outputs.get("F", 0) == 128
    assert engine.leader_count() == outputs["L"]


# ----------------------------------------------------------------------
# O(k)-memory construction through the initial_counts hook
# ----------------------------------------------------------------------
class _CountsOnlyEpidemic(OneWayEpidemic):
    """Epidemic variant that *only* provides counts (no O(n) configuration)."""

    def initial_counts(self, n):
        return {"informed": self.sources, "susceptible": n - self.sources}

    def initial_configuration(self, n):  # pragma: no cover - must not be hit
        raise AssertionError("count engines must prefer initial_counts")


def test_initial_counts_hook_bypasses_configuration():
    engine = CountBatchEngine(_CountsOnlyEpidemic(), 10**6, rng=1)
    assert engine.count_of("susceptible") == 10**6 - 1
    engine.run(10_000)
    assert sum(engine.state_counts().values()) == 10**6


def test_initial_count_items_validates_totals():
    class Broken(PopulationProtocol):
        name = "broken-counts"

        def initial_state(self, n):
            return "x"

        def initial_counts(self, n):
            return {"x": n + 1}

        def transition(self, responder, initiator):
            return responder, initiator

        def output(self, state):
            return "F"

    with pytest.raises(ProtocolError):
        initial_count_items(Broken(), 8)


def test_initial_count_items_run_length_encodes_configuration():
    items = initial_count_items(OneWayEpidemic(sources=3), 10)
    assert items == [("informed", 3), ("susceptible", 7)]


# ----------------------------------------------------------------------
# Internal sampling helpers
# ----------------------------------------------------------------------
def test_sequential_conditional_hypergeometric_matches_numpy():
    """The count stream's sequential-conditional multivariate
    hypergeometric split must agree with NumPy's in mean (same
    distribution; only the draw decomposition differs)."""
    words = [int(word) for word in seed_kernel_rng(make_rng(0))]
    colors = np.array([50, 30, 0, 20], dtype=np.int64)
    weighted = [(sid, color) for sid, color in enumerate(colors.tolist()) if color]
    totals = np.zeros(4)
    trials = 20_000
    for _ in range(trials):
        draw = np.zeros(4, dtype=np.int64)
        for sid, drawn in _split(words, weighted, 10, 100):
            draw[sid] = drawn
        assert draw.sum() == 10
        assert np.all(draw <= colors)
        totals += draw
    expected = colors / 100 * 10
    assert np.allclose(totals / trials, expected, atol=0.1)


def test_survival_curve_is_a_valid_survival_function():
    engine = CountBatchEngine(OneWayEpidemic(), 10_000, rng=0)
    survival = -engine._neg_survival
    assert survival[0] == pytest.approx(1.0)
    assert np.all(np.diff(survival) <= 0)
    assert survival[-1] >= 0.0
    # P(L >= 2) for n agents is (n-2)(n-3)/(n(n-1)).
    n = 10_000
    assert survival[1] == pytest.approx((n - 2) * (n - 3) / (n * (n - 1)))
