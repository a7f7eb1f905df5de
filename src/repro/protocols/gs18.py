"""A GS18-style ``O(log² n)``-time, ``O(log log n)``-state leader election.

This is the reproduction's main comparator: the space-optimal protocol of
Gąsieniec & Stachowiak (SODA 2018) that the paper improves upon.  The
structure mirrors the original:

1. **Junta formation** — every agent grows a level exactly like the coin
   preprocessing of GSU19 (meet a lower level or run out of luck → stop;
   meet an equal-or-higher level → advance); agents reaching level ``Φ``
   form the junta that drives the phase clock.
2. **Phase-clock rounds** — all agents keep a ``Γ``-phase clock pushed by
   the junta, exactly as in Section 3 of the paper.
3. **Fair-coin elimination** — every agent starts as a leader candidate.  In
   the early half of each round, every remaining candidate flips an
   (almost) fair synthetic coin — the parity bit of its interaction partner;
   in the late half the candidates that flipped heads broadcast this fact
   and every tails candidate that hears it withdraws.  With a constant-bias
   coin the candidate count halves per round, so ``Θ(log n)`` rounds of
   ``Θ(log n)`` parallel time each are needed — the ``O(log² n)`` bound the
   GSU19 paper breaks.
4. **Backup** — two candidates meeting directly resolve in favour of the
   initiator, which keeps the protocol a Las Vegas algorithm.

The per-agent state count is ``Γ · O(log log n)`` — the same order as GSU19 —
so Table 1's "states" column can be compared empirically as well.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.clocks.phase_clock import PhaseClockRules
from repro.core.params import GSUParams
from repro.engine.protocol import FOLLOWER_OUTPUT, LEADER_OUTPUT, PopulationProtocol
from repro.types import CoinMode, Flip

__all__ = ["GS18LeaderElection", "GS18State"]


@dataclass(frozen=True)
class GS18State:
    """State of an agent in the GS18-style protocol."""

    phase: int = 0
    level: int = 0
    level_mode: CoinMode = CoinMode.ADVANCING
    candidate: bool = True
    flip: Flip = Flip.NONE
    void: bool = True
    parity: int = 0
    #: True once the agent has observed the clock running (first pass through
    #: 0); candidates only start flipping from their second round on, when
    #: the junta has stabilised.
    started: bool = False


class GS18LeaderElection(PopulationProtocol):
    """Junta clock + repeated fair synthetic coin flips (``O(log² n)`` whp)."""

    name = "gs18-leader-election"

    def __init__(self, params: GSUParams) -> None:
        self.params = params
        self.clock = PhaseClockRules(params.gamma)

    @classmethod
    def for_population(
        cls, n: int, *, gamma: Optional[int] = None, phi: Optional[int] = None
    ) -> "GS18LeaderElection":
        """Build the protocol with parameters derived from ``n``.

        The junta level ``Φ`` is a few levels higher than GSU19's because
        here the *whole* population (not only the coin quarter) runs the
        level process and the first squarings barely thin it out, so extra
        levels are needed to reach a junta of size well below ``n``.
        """
        base = GSUParams.from_population_size(n, gamma=gamma)
        if phi is None:
            phi = base.phi + 3
        return cls(GSUParams.from_population_size(n, gamma=base.gamma, phi=phi))

    # ------------------------------------------------------------------
    def initial_state(self, n: int) -> GS18State:
        return GS18State()

    def initial_counts(self, n: int):
        # O(k) form for the configuration-level engines (n = 10^7-10^8 runs
        # never materialise a per-agent list).
        return {GS18State(): n}

    def transition(self, responder: GS18State, initiator: GS18State):
        params = self.params
        clock = self.clock

        # Phase clock (junta = agents at the top level).
        old_phase = responder.phase
        is_junta = responder.level >= params.phi
        new_phase = clock.advance(old_phase, initiator.phase, is_junta)
        passed_zero = clock.passed_zero(old_phase, new_phase)
        early = clock.is_early(old_phase, new_phase)
        late = clock.is_late(old_phase, new_phase)

        level = responder.level
        level_mode = responder.level_mode
        candidate = responder.candidate
        flip = responder.flip
        void = responder.void
        started = responder.started

        # Junta formation (same rules as GSU19 coin preprocessing, applied to
        # the whole population).
        if level_mode == CoinMode.ADVANCING:
            if initiator.level < level:
                level_mode = CoinMode.STOPPED
            elif level < params.phi:
                level += 1
                if level >= params.phi:
                    level_mode = CoinMode.STOPPED
            else:
                level_mode = CoinMode.STOPPED

        # Round boundary: clear the flip, mark the round void, note the clock
        # is running.
        if passed_zero:
            flip = Flip.NONE
            void = True
            started = True

        # Early half: flip the fair synthetic coin (the partner's parity bit).
        if early and candidate and started and flip == Flip.NONE:
            if initiator.parity == 1:
                flip = Flip.HEADS
                void = False
            else:
                flip = Flip.TAILS

        # Late half: heads epidemic among candidates / former candidates.
        if late and void and not initiator.void:
            if candidate and flip == Flip.TAILS:
                candidate = False
            void = False

        # Backup: two candidates meeting directly -> the responder withdraws.
        if candidate and initiator.candidate:
            candidate = False

        # Followers do not need flip/void bookkeeping beyond the epidemic bit.
        if not candidate:
            flip = Flip.NONE

        new_responder = GS18State(
            phase=new_phase,
            level=level,
            level_mode=level_mode,
            candidate=candidate,
            flip=flip,
            void=void,
            parity=1 - responder.parity,
            started=started,
        )
        if new_responder == responder:
            return responder, initiator
        return new_responder, initiator

    def output(self, state: GS18State) -> str:
        return LEADER_OUTPUT if state.candidate else FOLLOWER_OUTPUT

    def transition_key(self) -> tuple:
        # n_hint is validation-only: every size of a calibration shares a table.
        params, cls = self.params, type(self)
        return (f"{cls.__module__}.{cls.__qualname__}", params.gamma, params.phi, params.psi)

    # ------------------------------------------------------------------
    def phase_of(self, state: GS18State) -> int:
        """Clock-phase accessor (round-tracking utilities)."""
        return state.phase

    def is_junta_member(self, state: GS18State) -> bool:
        """Whether the agent drives the phase clock."""
        return state.level >= self.params.phi
