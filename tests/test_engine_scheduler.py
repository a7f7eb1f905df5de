"""Tests for the random-pair scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.scheduler import PairSampler
from repro.errors import ConfigurationError


def test_rejects_population_below_two():
    with pytest.raises(ConfigurationError):
        PairSampler(1, rng=0)


def test_pair_block_shapes_and_distinctness():
    sampler = PairSampler(4, rng=3)
    a, b = sampler.pair_block(10_000)
    assert a.shape == b.shape == (10_000,)
    assert np.all(a != b)
    assert a.min() >= 0 and a.max() < 4


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
