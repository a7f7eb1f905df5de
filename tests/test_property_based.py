"""Property-based tests (hypothesis) for core data structures and invariants.

The properties here are the ones the simulation's correctness rests on:

* state encoding round-trips,
* the windowed maximum ``max_Γ`` behaves like a cyclic "ahead of" choice,
* the GSU19 transition function is total, deterministic and closed over its
  state space, never creates alive candidates out of thin air, and never
  decreases a leader's drag,
* the engines conserve the population for arbitrary protocols,
* the exact batched engine (``FastBatchEngine``) applies arbitrary pair
  blocks exactly — collision handling never drops, duplicates or reorders
  an interaction — and reproduces the sequential engine bit for bit,
* the seniority order is a total preorder consistent with equality,
* the analysis helpers accept arbitrary well-formed inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.scaling import GROWTH_MODELS, fit_growth_model
from repro.analysis.stats import summarize
from repro.clocks.phase_clock import PhaseClockRules, max_gamma
from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.core.state import (
    GSUAgentState,
    coin_state,
    deactivated_state,
    inhibitor_state,
    intermediate_state,
    is_alive_leader,
    leader_state,
    seniority_key,
    zero_state,
)
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import (
    FastBatchEngine,
    conflict_columns,
    wave_depths,
)
from repro.engine.state import StateEncoder
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.types import CoinMode, Elevation, Flip, LeaderMode

# A fixed parameterisation used by the transition-function properties.
PARAMS = GSUParams.from_population_size(1024, gamma=16, phi=2, psi=3)
PROTOCOL = GSULeaderElection(PARAMS)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
phases = st.integers(min_value=0, max_value=PARAMS.gamma - 1)
levels = st.integers(min_value=0, max_value=PARAMS.phi)
drags = st.integers(min_value=0, max_value=PARAMS.psi)
cnts = st.integers(min_value=0, max_value=PARAMS.initial_cnt)
coin_modes = st.sampled_from(list(CoinMode))
elevations = st.sampled_from(list(Elevation))
leader_modes = st.sampled_from(list(LeaderMode))
flips = st.sampled_from(list(Flip))


@st.composite
def gsu_states(draw) -> GSUAgentState:
    """Arbitrary *canonical* GSU agent states (fields irrelevant to the role
    stay at their defaults, as the constructors guarantee)."""
    kind = draw(st.integers(min_value=0, max_value=5))
    phase = draw(phases)
    if kind == 0:
        return zero_state(phase)
    if kind == 1:
        return intermediate_state(phase)
    if kind == 2:
        return deactivated_state(phase)
    if kind == 3:
        return coin_state(phase, level=draw(levels), mode=draw(coin_modes))
    if kind == 4:
        return inhibitor_state(
            phase, drag=draw(drags), mode=draw(coin_modes), elevation=draw(elevations)
        )
    return leader_state(
        phase,
        mode=draw(leader_modes),
        cnt=draw(cnts),
        flip=draw(flips),
        void=draw(st.booleans()),
        drag=draw(drags),
    )


# ----------------------------------------------------------------------
# StateEncoder
# ----------------------------------------------------------------------
@given(st.lists(st.one_of(st.integers(), st.text(), st.tuples(st.integers(), st.text()))))
def test_encoder_round_trips_arbitrary_hashables(states):
    encoder = StateEncoder()
    ids = [encoder.encode(state) for state in states]
    assert [encoder.decode(i) for i in ids] == states
    # Identifiers are consistent: re-encoding yields the same ids.
    assert [encoder.encode(state) for state in states] == ids
    assert len(encoder) == len(set(states))


# ----------------------------------------------------------------------
# max_gamma
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
    st.sampled_from([8, 16, 24, 32, 64]),
)
def test_max_gamma_properties(x, y, gamma):
    x %= gamma
    y %= gamma
    result = max_gamma(x, y, gamma)
    assert result in (x, y)                       # choice, never invention
    assert result == max_gamma(y, x, gamma)       # symmetry
    assert max_gamma(x, x, gamma) == x            # idempotence
    if abs(x - y) <= gamma // 2:
        assert result == max(x, y)
    else:
        assert result == min(x, y)


@given(st.integers(min_value=0, max_value=23), st.integers(min_value=0, max_value=23))
def test_clock_advance_stays_in_range_and_detects_wraps(old, other):
    rules = PhaseClockRules(24)
    for is_junta in (False, True):
        new = rules.advance(old, other, is_junta)
        assert 0 <= new < 24
        # passed_zero is exactly "the numeric phase decreased".
        assert rules.passed_zero(old, new) == (new < old)


# ----------------------------------------------------------------------
# GSU transition function
# ----------------------------------------------------------------------
@given(gsu_states(), gsu_states())
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
def test_transition_is_total_deterministic_and_well_typed(responder, initiator):
    first = PROTOCOL.transition(responder, initiator)
    second = PROTOCOL.transition(responder, initiator)
    assert first == second
    new_responder, new_initiator = first
    assert isinstance(new_responder, GSUAgentState)
    assert isinstance(new_initiator, GSUAgentState)
    # Phases stay in range; the initiator's clock is never advanced.
    assert 0 <= new_responder.phase < PARAMS.gamma
    assert new_initiator.phase == initiator.phase
    # Field ranges are preserved (closure of the finite state space).
    for state in (new_responder, new_initiator):
        assert 0 <= state.level <= PARAMS.phi
        assert 0 <= state.drag <= PARAMS.psi
        assert 0 <= state.cnt <= PARAMS.initial_cnt


@given(gsu_states(), gsu_states())
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
def test_transition_never_creates_alive_candidates_from_working_roles(responder, initiator):
    """Alive candidates can only be created by rule (1a) out of two
    uninitialised agents; among already-initialised agents the number of
    alive candidates never increases."""
    before = int(is_alive_leader(responder)) + int(is_alive_leader(initiator))
    new_responder, new_initiator = PROTOCOL.transition(responder, initiator)
    after = int(is_alive_leader(new_responder)) + int(is_alive_leader(new_initiator))
    both_initialised = not responder.is_uninitialised and not initiator.is_uninitialised
    if both_initialised:
        assert after <= before


@given(gsu_states(), gsu_states())
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
def test_transition_never_decreases_leader_drag(responder, initiator):
    new_responder, new_initiator = PROTOCOL.transition(responder, initiator)
    if responder.role == new_responder.role == leader_state().role:
        assert new_responder.drag >= responder.drag
    if initiator.role == new_initiator.role == leader_state().role:
        assert new_initiator.drag >= initiator.drag


@given(gsu_states(), gsu_states())
@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
def test_roles_are_stable_once_assigned(responder, initiator):
    """Once an agent is a coin, inhibitor, leader or deactivated, its role
    never changes again (the paper: "this role is never changed")."""
    new_responder, new_initiator = PROTOCOL.transition(responder, initiator)
    for old, new in ((responder, new_responder), (initiator, new_initiator)):
        if not old.is_uninitialised:
            assert new.role == old.role


# ----------------------------------------------------------------------
# FastBatchEngine exactness
# ----------------------------------------------------------------------
@st.composite
def pair_blocks(draw):
    """A population size and an arbitrary block of ordered distinct pairs."""
    n = draw(st.integers(min_value=2, max_value=48))
    m = draw(st.integers(min_value=0, max_value=120))
    responders = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=m, max_size=m)
    )
    offsets = draw(
        st.lists(st.integers(min_value=1, max_value=n - 1), min_size=m, max_size=m)
    )
    initiators = [(a + o) % n for a, o in zip(responders, offsets)]
    return n, np.asarray(responders, dtype=np.int64), np.asarray(initiators, dtype=np.int64)


@given(pair_blocks())
@settings(max_examples=150, deadline=None)
def test_block_schedules_never_drop_or_duplicate_interactions(block):
    """The wave schedule is an exact partition of the block: every
    interaction appears in exactly one wave, predecessors sit in strictly
    earlier waves, and no two members of a wave share an agent."""
    _, responders, initiators = block
    m = responders.shape[0]
    conflict_r, conflict_i = conflict_columns(responders, initiators)
    depth = wave_depths(conflict_r, conflict_i, max_waves=m + 1)
    assert depth is not None
    waves = range(int(depth.max()) + 1 if m else 0)
    assert sum(int((depth == w).sum()) for w in waves) == m
    for w in waves:
        members = np.flatnonzero(depth == w)
        ids = np.concatenate([responders[members], initiators[members]])
        assert np.unique(ids).size == ids.size
    for t in range(m):
        for pred in (int(conflict_r[t]), int(conflict_i[t])):
            if pred >= 0:
                assert depth[pred] < depth[t]


@given(
    pair_blocks(),
    st.sampled_from(["epidemic", "majority"]),
    st.sampled_from(["auto", "numpy"]),
)
@settings(max_examples=100, deadline=None)
def test_fast_batch_applies_arbitrary_blocks_exactly(block, workload, kernel):
    """Feeding one explicit pair block through the batched application path
    (both the C kernel and the NumPy wave schedule) gives exactly the
    configuration of folding the transition over the block sequentially —
    the collision handling neither drops nor duplicates nor reorders an
    interaction."""
    n, responders, initiators = block
    protocol = (
        OneWayEpidemic() if workload == "epidemic" else ApproximateMajority(0.5)
    )
    engine = FastBatchEngine(protocol, n, rng=0, kernel=kernel)
    expected = list(protocol.initial_configuration(n))
    for a, b in zip(responders.tolist(), initiators.tolist()):
        expected[a], expected[b] = protocol.transition(expected[a], expected[b])
    engine._apply_block(responders, initiators)
    assert engine.population_snapshot() == expected


@given(
    st.integers(min_value=2, max_value=200),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fast_batch_conserves_population_and_matches_sequential(n, seed, runs):
    """For any population size, seed and driver call pattern the batched
    engine conserves the population, keeps counts non-negative, and — since
    it consumes the shared randomness stream through the same draws — tracks
    the sequential engine bit for bit."""
    batched = FastBatchEngine(OneWayEpidemic(), n, rng=seed)
    reference = SequentialEngine(OneWayEpidemic(), n, rng=seed)
    for count in runs:
        batched.run(count)
        reference.run(count)
        counts = batched.state_counts()
        assert all(value > 0 for value in counts.values())
        assert sum(counts.values()) == n
        assert counts == reference.state_counts()
    assert batched.population_snapshot() == reference.population_snapshot()
    assert batched.interactions == reference.interactions == sum(runs)


# ----------------------------------------------------------------------
# Seniority order
# ----------------------------------------------------------------------
@given(gsu_states(), gsu_states())
def test_seniority_is_a_total_preorder(a, b):
    ka, kb = seniority_key(a), seniority_key(b)
    assert (ka <= kb) or (kb <= ka)
    if a == b:
        assert ka == kb


# ----------------------------------------------------------------------
# Analysis helpers
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_summarize_bounds_hold_for_arbitrary_samples(values):
    summary = summarize(values)
    assert summary.minimum <= summary.median <= summary.maximum
    # The mean accumulates rounding error, so allow it to exceed the exact
    # bounds by a few ulps (e.g. mean([0.95] * 3) > 0.95).
    tolerance = 1e-9 * max(1.0, abs(summary.maximum))
    assert summary.minimum - tolerance <= summary.mean <= summary.maximum + tolerance
    assert summary.count == len(values)


@given(
    st.lists(st.integers(min_value=8, max_value=20), min_size=2, max_size=8, unique=True),
    st.floats(min_value=0.1, max_value=50.0),
)
def test_growth_fit_recovers_constant_for_exact_data(exponents, constant):
    ns = [2**e for e in exponents]
    times = [constant * math.log2(n) for n in ns]
    fit = fit_growth_model(ns, times, GROWTH_MODELS["log"])
    assert math.isclose(fit.constant, constant, rel_tol=1e-9)
    assert fit.relative_rms < 1e-9
