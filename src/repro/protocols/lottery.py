"""A simple ``O(log n)``-state lottery leader election (baseline).

Each agent draws a geometric "ticket" using the synthetic parity coin: while
*growing*, every interaction in which the partner's parity bit reads heads
increases the agent's ticket by one (capped at ``max_ticket ≈ 2 log₂ n``);
the first tails freezes it.  Agents then propagate the largest ticket they
have seen and a candidate that learns of a ticket larger than its own
withdraws.  Remaining ties are resolved by direct encounters (the responder
withdraws), which is what makes the protocol correct but only ``Θ(n)``
expected time overall — without a phase clock there is no broadcast round
structure to resolve ties quickly.

The protocol exists as a Table 1 comparator: it shows that simply spending
``O(log n)`` states on random ranks does not buy polylogarithmic time; the
paper's phase-clock-plus-broadcast machinery is what does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine.closure import cached_closure, reachable_closure
from repro.engine.protocol import FOLLOWER_OUTPUT, LEADER_OUTPUT, PopulationProtocol
from repro.errors import ConfigurationError

__all__ = ["LotteryLeaderElection", "LotteryState"]


@dataclass(frozen=True)
class LotteryState:
    """State of an agent in the lottery protocol."""

    #: Whether this agent is still a leader candidate.
    candidate: bool = True
    #: Whether the ticket is still growing.
    growing: bool = True
    #: The agent's own ticket value.
    ticket: int = 0
    #: Largest ticket value seen anywhere (for max-propagation).
    best_seen: int = 0
    #: Synthetic-coin parity bit.
    parity: int = 0


class LotteryLeaderElection(PopulationProtocol):
    """Geometric-ticket lottery with max-propagation and direct tie-breaks."""

    name = "lottery-leader-election"

    def __init__(self, max_ticket: int) -> None:
        if max_ticket < 1:
            raise ConfigurationError(f"max_ticket must be >= 1, got {max_ticket}")
        self.max_ticket = max_ticket

    @classmethod
    def for_population(cls, n: int) -> "LotteryLeaderElection":
        """Ticket cap ``≈ 2·log₂ n`` so ties at the cap are unlikely."""
        return cls(max_ticket=max(1, int(math.ceil(2 * math.log2(max(2, n))))))

    # ------------------------------------------------------------------
    def initial_state(self, n: int) -> LotteryState:
        return LotteryState()

    def initial_counts(self, n: int):
        # O(k) form for the configuration-level engines (n = 10^7-10^8 runs
        # never materialise a per-agent list).
        return {LotteryState(): n}

    def state_closure(self):
        """The states reachable from the initial state, with their LUT: one
        generic BFS per ``max_ticket``, cached in memory and on disk."""
        return cached_closure(
            type(self),
            (self.max_ticket,),
            lambda: reachable_closure(self.transition, [LotteryState()]),
        )

    def transition(self, responder: LotteryState, initiator: LotteryState):
        candidate = responder.candidate
        growing = responder.growing
        ticket = responder.ticket

        # Grow the ticket using the partner's parity bit as a fair coin.  A
        # still-growing candidate does not yet track other agents' tickets
        # (keeping its state count at O(log n): ``best_seen`` always equals
        # its own ticket until it stops growing).
        if candidate and growing:
            if initiator.parity == 1 and ticket < self.max_ticket:
                ticket += 1
            else:
                growing = False
            best_seen = ticket
        else:
            best_seen = max(
                responder.best_seen, initiator.best_seen, initiator.ticket, ticket
            )

        # Withdraw when a strictly larger ticket is known.
        if candidate and not growing and best_seen > ticket:
            candidate = False

        # Direct tie-break: two stopped candidates with equal tickets.
        if (
            candidate
            and initiator.candidate
            and not growing
            and not initiator.growing
            and ticket == initiator.ticket
        ):
            candidate = False

        # A follower's only job is relaying the largest ticket it has seen;
        # normalising its other fields keeps the state space at O(log n).
        if not candidate:
            ticket = 0
            growing = False

        new_responder = LotteryState(
            candidate=candidate,
            growing=growing,
            ticket=ticket,
            best_seen=best_seen,
            parity=1 - responder.parity,
        )
        return new_responder, initiator

    def output(self, state: LotteryState) -> str:
        return LEADER_OUTPUT if state.candidate else FOLLOWER_OUTPUT
