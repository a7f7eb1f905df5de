"""A simplified leaderless phase clock (ablation substrate).

The paper's clock is powered by a junta elected during coin preprocessing.
An alternative family of clocks needs no junta at all: Alistarh, Aspnes and
Gelashvili (SODA 2018) drive a clock from synthetic coin flips.  For ablation
purposes we implement a deterministic simplification in which *every* agent
acts as a (weak) pacemaker: the responder takes the windowed maximum of the
two phases and additionally steps forward by one when the two phases are
equal.  Ties are frequent early on, so the clock advances, but because every
agent pushes, the phase band is wider and the round structure is noisier than
with a junta — which is exactly the comparison the ablation benchmark makes.

This module is **not** part of the reproduced protocol; it exists so that the
"why a junta?" design choice can be benchmarked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.clocks.phase_clock import PhaseClockRules
from repro.engine.protocol import FOLLOWER_OUTPUT, PopulationProtocol

__all__ = ["LeaderlessClockProtocol", "LeaderlessClockState"]


@dataclass(frozen=True)
class LeaderlessClockState:
    """State of an agent in the leaderless clock: a phase and a round count."""

    phase: int = 0
    rounds: int = 0


class LeaderlessClockProtocol(PopulationProtocol):
    """Every agent is a pacemaker: ties push the clock forward."""

    name = "leaderless-phase-clock"

    def __init__(self, gamma: int = 32, max_rounds: int = 64) -> None:
        self.rules = PhaseClockRules(gamma)
        self.gamma = gamma
        self.max_rounds = max_rounds

    def initial_state(self, n: int) -> LeaderlessClockState:
        return LeaderlessClockState()

    def initial_configuration(self, n: int) -> Sequence[LeaderlessClockState]:
        return [LeaderlessClockState()] * n

    def transition(self, responder: LeaderlessClockState, initiator: LeaderlessClockState):
        if responder.phase == initiator.phase:
            new_phase = (responder.phase + 1) % self.gamma
        else:
            new_phase = self.rules.advance(responder.phase, initiator.phase, False)
        rounds = responder.rounds
        if self.rules.passed_zero(responder.phase, new_phase):
            rounds = min(rounds + 1, self.max_rounds)
        if new_phase == responder.phase and rounds == responder.rounds:
            return responder, initiator
        return LeaderlessClockState(phase=new_phase, rounds=rounds), initiator

    def output(self, state: LeaderlessClockState) -> str:
        return FOLLOWER_OUTPUT

    def phase_of(self, state: LeaderlessClockState) -> int:
        """Accessor used by the round-tracking utilities."""
        return state.phase

    def rounds_of(self, state: LeaderlessClockState) -> int:
        """Completed-round counter of an agent."""
        return state.rounds
