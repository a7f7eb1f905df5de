"""Tests for the random-pair scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.scheduler import PairSampler
from repro.errors import CheckpointError, ConfigurationError


def test_rejects_population_below_two():
    with pytest.raises(ConfigurationError):
        PairSampler(1, rng=0)


def test_pair_block_shapes_and_distinctness():
    sampler = PairSampler(4, rng=3)
    a, b = sampler.pair_block(10_000)
    assert a.shape == b.shape == (10_000,)
    assert np.all(a != b)
    assert a.min() >= 0 and a.max() < 4


def test_pair_block_produces_distinct_in_range_pairs():
    a, b = PairSampler(24, rng=3).pair_block(4000)
    assert a.shape == b.shape == (4000,)
    assert np.all(a != b)
    assert a.min() >= 0 and a.max() < 24
    assert b.min() >= 0 and b.max() < 24


def test_pair_block_is_reproducible_for_same_seed():
    a1, b1 = PairSampler(100, rng=42).pair_block(1000)
    a2, b2 = PairSampler(100, rng=42).pair_block(1000)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)


def test_pair_distribution_is_roughly_uniform():
    # Each ordered pair of distinct agents should appear with probability
    # 1/(n(n-1)).  At n = 2 half the candidate pairs collide and at n = 3 a
    # third, so the collision redraw decides a large share of these pairs;
    # a redraw that favoured some initiator would skew the frequencies.
    draws = 60_000
    for n in (2, 3, 4):
        a, b = PairSampler(n, rng=7 + n).pair_block(draws)
        assert np.all(a != b)
        frequencies = np.bincount(a * n + b, minlength=n * n) / draws
        expected = np.full(n * n, 1.0 / (n * (n - 1)))
        expected[:: n + 1] = 0.0  # the diagonal: no agent meets itself
        assert np.allclose(frequencies, expected, atol=0.01), n


def test_ordered_pairs_cover_both_orders():
    # Every ordered pair of distinct agents occurs, in both orders, at the
    # populations where the collision redraw runs most.
    for n in (2, 3):
        a, b = PairSampler(n, rng=11).pair_block(2000)
        seen = set(zip(a.tolist(), b.tolist()))
        assert seen == {(x, y) for x in range(n) for y in range(n) if x != y}


def test_generator_property_exposes_numpy_generator():
    sampler = PairSampler(8, rng=0)
    assert isinstance(sampler.generator, np.random.Generator)


def test_snapshot_resumes_pair_stream_exactly():
    sampler = PairSampler(24, 13)
    sampler.pair_block(37)  # advance the generator past a prefix
    snapshot = sampler.state_snapshot()
    expected = [sampler.pair_block(size) for size in (1, 50, 500)]

    restored = PairSampler(24, 999)
    restored.state_restore(snapshot)
    for size, (responders, initiators) in zip((1, 50, 500), expected):
        block = restored.pair_block(size)
        assert np.array_equal(block[0], responders)
        assert np.array_equal(block[1], initiators)


def test_snapshot_records_complete_kind():
    assert PairSampler(24, 1).state_snapshot()["kind"] == PairSampler.kind == "complete"


def test_snapshot_of_a_retired_scheduler_kind_is_refused():
    """Builds with the scenario layer recorded topology schedulers' kinds
    (``"cycle"``, ``"grid2d"``, ...); none restores into the sampler."""
    snapshot = dict(PairSampler(24, 1).state_snapshot(), kind="cycle")
    with pytest.raises(CheckpointError, match="'cycle' scheduler of the retired scenario layer"):
        PairSampler(24, 1).state_restore(snapshot)


def test_snapshot_reads_legacy_pending_lists():
    """Snapshots in the historical layout (no ``kind``, the pending tail as
    ``pending_a``/``pending_b`` lists) restore unchanged when the tail is
    empty; a non-empty tail is refused, since no pair is owed any more."""
    sampler = PairSampler(64, rng=5)
    sampler.pair_block(10)
    snapshot = sampler.state_snapshot()
    expected = sampler.pair_block(40)

    legacy = {"n": snapshot["n"], "rng": snapshot["rng"], "pending_a": [], "pending_b": []}
    restored = PairSampler(64, rng=999)
    restored.state_restore(legacy)
    block = restored.pair_block(40)
    assert np.array_equal(block[0], expected[0])
    assert np.array_equal(block[1], expected[1])

    legacy.update(pending_a=[3], pending_b=[7])
    with pytest.raises(CheckpointError, match="non-empty pending tail"):
        PairSampler(64, rng=999).state_restore(legacy)
