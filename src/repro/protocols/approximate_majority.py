"""The 3-state approximate-majority protocol of Angluin, Aspnes, Eisenstat
(Distributed Computing 2008).

States ``A``, ``B`` and ``blank``; one-way rules (only the responder
updates)::

    A + B → blank + B        B + A → blank + A
    blank + A → A + A        blank + B → B + B

Starting from an initial gap of ``ω(√n log n)`` between the two opinions, the
whole population adopts the initial majority within ``O(log n)`` parallel
time with high probability.  The protocol is included both as an
engine-validation workload (its behaviour is extremely well known) and
because the paper's introduction motivates population protocols through
majority/consensus tasks.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.closure import cached_closure, reachable_closure
from repro.engine.protocol import FOLLOWER_OUTPUT, PopulationProtocol
from repro.errors import ConfigurationError

__all__ = ["ApproximateMajority"]

_A = "A"
_B = "B"
_BLANK = "blank"


class ApproximateMajority(PopulationProtocol):
    """3-state approximate majority.

    Parameters
    ----------
    initial_a_fraction:
        Fraction of agents starting with opinion ``A`` (the rest start with
        ``B``); the initial configuration is deterministic (the first
        ``round(fraction·n)`` agents are ``A``), which is all the scheduler's
        randomness needs.
    """

    name = "approximate-majority"

    def __init__(self, initial_a_fraction: float = 0.7) -> None:
        if not 0.0 <= initial_a_fraction <= 1.0:
            raise ConfigurationError(
                f"initial_a_fraction must lie in [0, 1], got {initial_a_fraction}"
            )
        self.initial_a_fraction = initial_a_fraction

    # ------------------------------------------------------------------
    def initial_state(self, n: int) -> str:
        return _A

    def initial_configuration(self, n: int) -> Sequence[str]:
        a_count = self._initial_a_count(n)
        return [_A] * a_count + [_B] * (n - a_count)

    def initial_counts(self, n: int):
        # O(k) form for the configuration-level engines (n = 10^7-10^8 runs
        # never materialise a per-agent list).
        a_count = self._initial_a_count(n)
        return {_A: a_count, _B: n - a_count}

    def _initial_a_count(self, n: int) -> int:
        a_count = int(round(self.initial_a_fraction * n))
        return min(max(a_count, 0), n)

    def transition(self, responder: str, initiator: str):
        if responder == _A and initiator == _B:
            return _BLANK, initiator
        if responder == _B and initiator == _A:
            return _BLANK, initiator
        if responder == _BLANK and initiator in (_A, _B):
            return initiator, initiator
        return responder, initiator

    def output(self, state: str) -> str:
        # Majority protocols use their own output alphabet; none of the
        # states maps to the leader output.
        return state if state in (_A, _B) else FOLLOWER_OUTPUT

    def state_closure(self):
        """``A``, ``B`` and ``blank``, with their LUT (the initial fraction
        changes no rule), cached in memory and on disk."""
        seeds = [_A, _B, _BLANK]
        return cached_closure(
            type(self), (), lambda: reachable_closure(self.transition, seeds)
        )

    # ------------------------------------------------------------------
    @staticmethod
    def consensus_reached(counts: dict) -> bool:
        """Whether every agent holds the same non-blank opinion."""
        a = counts.get(_A, 0)
        b = counts.get(_B, 0)
        return (a == 0) != (b == 0) and counts.get(FOLLOWER_OUTPUT, 0) == 0
