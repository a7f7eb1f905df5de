"""Inhibitor sub-population: drag preprocessing and slowed-down signalling
(Section 7 of the paper).

Inhibitors play no part in electing the leader directly; they implement the
**slowing-down drag counter** that makes the final-elimination epoch safe.

*Preprocessing.*  Each inhibitor counts how many consecutive "successful
synthetic coin flips" it obtains right after the clock starts: following
Lemma 7.1 (``p = n_C/n = 1/4``, ``D_ℓ = n·4^{-ℓ}``), a flip succeeds when the
interaction partner is a **coin**, and the first failure freezes the
counter.  This stratifies the inhibitors into sub-groups of expected size
``n·4^{-ℓ}`` for ``ℓ = 0 … Ψ``.  (The displayed rule in the paper increments
on a *non*-coin partner, which contradicts Lemma 7.1 and its proof; we follow
the lemma; the ``lemma71`` experiment checks the group sizes.)  As printed in the paper, the preprocessing rules
carry the ``late→`` qualifier, which also guarantees they only fire once the
phase clock is actually running.

*Slowed-down signalling* (rule (8)).  A *stopped* inhibitor of drag ``x`` in
the ``low`` elevation becomes ``high`` when it meets an **active** leader
whose drag is also ``x``; ``high`` then spreads among the drag-``x``
inhibitors by one-way epidemic.  Because there are only ``≈ n·4^{-x}``
inhibitors of drag ``x``, this epidemic takes ``Θ(4^x log n)`` parallel time
— the exponentially slowing "tick" of Lemma 7.2 — and an active leader that
meets a ``high`` inhibitor of its own drag advances its drag by one
(rule (10), implemented in :mod:`repro.core.final_elimination`).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.context import InteractionContext
from repro.core.params import GSUParams
from repro.core.state import GSUAgentState
from repro.types import CoinMode, Elevation, LeaderMode, Role

__all__ = ["apply_inhibitor_rules"]


def apply_inhibitor_rules(
    responder: GSUAgentState,
    initiator: GSUAgentState,
    ctx: InteractionContext,
    params: GSUParams,
) -> Tuple[GSUAgentState, GSUAgentState]:
    """Apply drag preprocessing and the slowed-down communication rules to a
    responder inhibitor."""
    if responder.role != Role.INHIBITOR:
        return responder, initiator

    # ------------------------------------------------------------------
    # Drag preprocessing (late→): count consecutive coin meetings.
    # ------------------------------------------------------------------
    if responder.inhibitor_mode == CoinMode.ADVANCING and ctx.late:
        if initiator.role == Role.COIN:
            if responder.drag < params.psi:
                return responder.evolve(drag=responder.drag + 1), initiator
            return responder.evolve(inhibitor_mode=CoinMode.STOPPED), initiator
        return responder.evolve(inhibitor_mode=CoinMode.STOPPED), initiator

    # ------------------------------------------------------------------
    # Slowed-down inhibitor communication (rule (8)).
    # ------------------------------------------------------------------
    if (
        responder.inhibitor_mode == CoinMode.STOPPED
        and responder.elevation == Elevation.LOW
    ):
        # Activation by an active leader of the same drag value.  The leader
        # must have entered the final-elimination epoch (cnt == 0): the drag
        # machinery plays no role during fast elimination.
        if (
            initiator.role == Role.LEADER
            and initiator.leader_mode == LeaderMode.ACTIVE
            and initiator.cnt == 0
            and initiator.drag == responder.drag
        ):
            return responder.evolve(elevation=Elevation.HIGH), initiator
        # One-way epidemic among inhibitors of the same drag value.
        if (
            initiator.role == Role.INHIBITOR
            and initiator.drag == responder.drag
            and initiator.elevation == Elevation.HIGH
        ):
            return responder.evolve(elevation=Elevation.HIGH), initiator

    return responder, initiator
