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

from repro.clocks.phase_clock import PhaseClockedProtocol
from repro.core.params import GSUParams
from repro.engine.protocol import FOLLOWER_OUTPUT, LEADER_OUTPUT
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

    def with_phase(self, phase: int) -> "GS18State":
        """Copy of this state with a different clock phase."""
        return self if phase == self.phase else replace(self, phase=phase)

    def is_junta(self, phi: int) -> bool:
        """Whether the agent drives the phase clock (it reached level ``Φ``)."""
        return self.level >= phi


class GS18LeaderElection(PhaseClockedProtocol):
    """Junta clock + repeated fair synthetic coin flips (``O(log² n)`` whp).

    Its :meth:`transition` is the shared clock step followed by
    :meth:`apply_rules`, so its whole state space (1,555 states at Table 1's
    ``Γ=24, Φ=4``) closes through the phase-factored BFS and per-agent runs
    start fully compiled.
    """

    name = "gs18-leader-election"

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

    def apply_rules(self, responder: GS18State, initiator: GS18State, qualifier: int):
        """Everything after the clock step; ``qualifier`` bit 0 is the pass
        through 0, bit 1 an early and bit 2 a late step.  No rule reads a
        phase."""
        params = self.params
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
        if qualifier & 1:
            flip = Flip.NONE
            void = True
            started = True

        # Early half: flip the fair synthetic coin (the partner's parity bit).
        if qualifier & 2 and candidate and started and flip == Flip.NONE:
            if initiator.parity == 1:
                flip = Flip.HEADS
                void = False
            else:
                flip = Flip.TAILS

        # Late half: heads epidemic among candidates / former candidates.
        if qualifier & 4 and void and not initiator.void:
            if candidate and flip == Flip.TAILS:
                candidate = False
            void = False

        # Backup: two candidates meeting directly -> the responder withdraws.
        if candidate and initiator.candidate:
            candidate = False

        # Followers do not need flip/void bookkeeping beyond the epidemic bit.
        if not candidate:
            flip = Flip.NONE

        # The parity bit flips on every interaction, so the responder always
        # changes.
        new_responder = GS18State(
            phase=responder.phase,
            level=level,
            level_mode=level_mode,
            candidate=candidate,
            flip=flip,
            void=void,
            parity=1 - responder.parity,
            started=started,
        )
        return new_responder, initiator

    def output(self, state: GS18State) -> str:
        return LEADER_OUTPUT if state.candidate else FOLLOWER_OUTPUT

    # ------------------------------------------------------------------
    def phase_of(self, state: GS18State) -> int:
        """Clock-phase accessor (round-tracking utilities)."""
        return state.phase

    def is_junta_member(self, state: GS18State) -> bool:
        """Whether the agent drives the phase clock."""
        return state.is_junta(self.params.phi)
