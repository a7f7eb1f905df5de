"""Tests for the phase-clock arithmetic and the standalone clock protocol."""

from __future__ import annotations

import pytest

from repro.clocks.phase_clock import (
    ClockState,
    JuntaPhaseClockProtocol,
    PhaseClockRules,
    max_gamma,
)
from repro.engine.engine import SequentialEngine
from repro.errors import ConfigurationError
from repro.types import ClockMode


# ----------------------------------------------------------------------
# max_gamma
# ----------------------------------------------------------------------
def test_max_gamma_plain_maximum_within_window():
    assert max_gamma(3, 5, 16) == 5
    assert max_gamma(5, 3, 16) == 5
    assert max_gamma(7, 7, 16) == 7


def test_max_gamma_minimum_when_far_apart():
    # |x - y| > Γ/2: the smaller value wins (a runaway agent is pulled back).
    assert max_gamma(1, 15, 16) == 1
    assert max_gamma(15, 1, 16) == 1


def test_max_gamma_boundary_exactly_half():
    # |x - y| == Γ/2 is still "within the window".
    assert max_gamma(0, 8, 16) == 8


def test_max_gamma_symmetry():
    gamma = 24
    for x in range(gamma):
        for y in range(gamma):
            assert max_gamma(x, y, gamma) == max_gamma(y, x, gamma)


def test_max_gamma_result_is_one_of_inputs():
    gamma = 12
    for x in range(gamma):
        for y in range(gamma):
            assert max_gamma(x, y, gamma) in (x, y)


def test_max_gamma_rejects_out_of_range():
    with pytest.raises(ValueError):
        max_gamma(16, 0, 16)
    with pytest.raises(ValueError):
        max_gamma(0, -1, 16)


# ----------------------------------------------------------------------
# PhaseClockRules
# ----------------------------------------------------------------------
def test_rules_reject_bad_gamma():
    with pytest.raises(ConfigurationError):
        PhaseClockRules(3)
    with pytest.raises(ConfigurationError):
        PhaseClockRules(7)  # odd


def test_follower_advance_copies_forward():
    rules = PhaseClockRules(16)
    assert rules.advance(2, 5, is_junta=False) == 5
    assert rules.advance(5, 2, is_junta=False) == 5


def test_junta_advance_steps_one_ahead():
    rules = PhaseClockRules(16)
    assert rules.advance(4, 4, is_junta=True) == 5
    assert rules.advance(4, 6, is_junta=True) == 7


def test_junta_advance_wraps_modulo_gamma():
    rules = PhaseClockRules(16)
    # initiator at Γ-1: the bumped value is 0, far from 15, so min applies and
    # the junta responder is pulled to 0 — a pass through zero.
    new_phase = rules.advance(15, 15, is_junta=True)
    assert new_phase == 0
    assert rules.passed_zero(15, new_phase)


def test_passed_zero_detection():
    rules = PhaseClockRules(16)
    assert rules.passed_zero(15, 0)
    assert rules.passed_zero(12, 3)
    assert not rules.passed_zero(3, 12)
    assert not rules.passed_zero(5, 5)


def test_passed_half_detection():
    rules = PhaseClockRules(16)
    assert rules.passed_half(7, 8)
    assert rules.passed_half(6, 12)
    assert not rules.passed_half(8, 12)
    assert not rules.passed_half(3, 5)


def test_early_late_classification():
    rules = PhaseClockRules(16)
    assert rules.is_early(2, 5)
    assert not rules.is_early(2, 9)
    assert rules.is_late(9, 14)
    assert not rules.is_late(7, 9)
    assert rules.is_early_phase(0)
    assert not rules.is_early_phase(8)


def test_early_and_late_are_mutually_exclusive():
    rules = PhaseClockRules(24)
    for old in range(24):
        for new in range(24):
            assert not (rules.is_early(old, new) and rules.is_late(old, new))


def test_tables_match_advance_and_arrow_predicates():
    rules = PhaseClockRules(8)
    advance, qualifier = rules.tables()
    assert advance.shape == (8, 8, 2) and qualifier.shape == (8, 8)
    for old in range(8):
        for other in range(8):
            for junta in (0, 1):
                assert advance[old, other, junta] == rules.advance(old, other, junta)
            code = int(qualifier[old, other])
            assert bool(code & 1) == rules.passed_zero(old, other)
            assert bool(code & 2) == rules.is_early(old, other)
            assert bool(code & 4) == rules.is_late(old, other)


# ----------------------------------------------------------------------
# Standalone clock protocol
# ----------------------------------------------------------------------
def test_clock_protocol_configuration_places_junta():
    protocol = JuntaPhaseClockProtocol(gamma=16, junta_size=3)
    configuration = protocol.initial_configuration(10)
    junta = [state for state in configuration if state.mode == ClockMode.INJUNTA]
    assert len(junta) == 3


def test_clock_protocol_rejects_junta_larger_than_population():
    protocol = JuntaPhaseClockProtocol(gamma=16, junta_size=20)
    with pytest.raises(ConfigurationError):
        protocol.initial_configuration(10)


def test_clock_protocol_for_population_scales_junta():
    protocol = JuntaPhaseClockProtocol.for_population(1024, junta_exponent=0.5)
    assert protocol.junta_size == 32


def test_clock_advances_and_counts_rounds():
    protocol = JuntaPhaseClockProtocol.for_population(128, gamma=16)
    engine = SequentialEngine(protocol, 128, rng=0)
    engine.run_parallel_time(120)
    rounds = [protocol.rounds_of(state) for state in engine.distinct_states()]
    phases = [protocol.phase_of(state) for state in engine.distinct_states()]
    assert max(rounds) >= 1, "the clock should complete at least one round"
    assert 0 <= min(phases) and max(phases) < 16


def test_clock_phases_stay_in_a_band():
    """Theorem 3.2's qualitative content: the population's phases stay
    coherent (no agent is more than Γ/2 away from the pack, measured
    cyclically)."""
    gamma = 24
    protocol = JuntaPhaseClockProtocol.for_population(256, gamma=gamma)
    engine = SequentialEngine(protocol, 256, rng=1)
    engine.run_parallel_time(30)
    for _ in range(10):
        engine.run_parallel_time(5)
        phases = sorted(
            protocol.phase_of(engine.encoder.decode(sid))
            for sid, count in engine.state_count_items()
            if count
        )
        # Width of the occupied arc: smallest window (cyclically) containing
        # all phases must be at most Γ/2 + slack.
        gaps = [
            (phases[(i + 1) % len(phases)] - phases[i]) % gamma
            for i in range(len(phases))
        ]
        width = gamma - max(gaps) if len(phases) > 1 else 0
        assert width <= gamma // 2 + 2


def test_clock_state_rounds_capped():
    protocol = JuntaPhaseClockProtocol(gamma=8, junta_size=4, max_rounds=2)
    state = ClockState(phase=7, mode=ClockMode.INJUNTA, rounds=2)
    new_state, _ = protocol.transition(state, ClockState(phase=7))
    assert new_state.rounds == 2  # capped
