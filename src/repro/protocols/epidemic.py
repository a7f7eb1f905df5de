"""One-way epidemic (rumour spreading).

The elementary information-dissemination primitive used throughout the
paper: one agent knows a rumour, and a susceptible responder learns it when
its initiator is informed::

    susceptible + informed → informed + informed

The rumour reaches the whole population in ``Θ(log n)`` parallel time with
high probability (coupon-collector / logistic growth), which the test-suite
verifies — it is the timing fact behind the "broadcast in the late half of a
round" steps of both GS18 and GSU19.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.closure import cached_closure, reachable_closure
from repro.engine.protocol import FOLLOWER_OUTPUT, PopulationProtocol
from repro.errors import ConfigurationError

__all__ = ["OneWayEpidemic"]

_INFORMED = "informed"
_SUSCEPTIBLE = "susceptible"


class OneWayEpidemic(PopulationProtocol):
    """Rumour spreading from ``sources`` initially informed agents."""

    name = "one-way-epidemic"

    def __init__(self, sources: int = 1) -> None:
        if sources < 1:
            raise ConfigurationError(f"sources must be >= 1, got {sources}")
        self.sources = sources

    def initial_state(self, n: int) -> str:
        return _SUSCEPTIBLE

    def initial_configuration(self, n: int) -> Sequence[str]:
        if self.sources > n:
            raise ConfigurationError(
                f"sources={self.sources} exceeds population size {n}"
            )
        return [_INFORMED] * self.sources + [_SUSCEPTIBLE] * (n - self.sources)

    def initial_counts(self, n: int):
        # O(k) form for the configuration-level engines (n = 10^7-10^8 runs
        # never materialise a per-agent list).
        if self.sources > n:
            raise ConfigurationError(
                f"sources={self.sources} exceeds population size {n}"
            )
        return {_INFORMED: self.sources, _SUSCEPTIBLE: n - self.sources}

    def transition(self, responder: str, initiator: str):
        if responder == _SUSCEPTIBLE and initiator == _INFORMED:
            return _INFORMED, initiator
        return responder, initiator

    def output(self, state: str) -> str:
        return FOLLOWER_OUTPUT

    def state_closure(self):
        """Informed and susceptible, with their LUT (no parameter changes
        a rule), cached in memory and on disk."""
        seeds = [_INFORMED, _SUSCEPTIBLE]
        return cached_closure(
            type(self), (), lambda: reachable_closure(self.transition, seeds)
        )

    # ------------------------------------------------------------------
    @staticmethod
    def informed_count(counts: dict) -> int:
        """Number of informed agents in a ``{state: count}`` dictionary."""
        return counts.get(_INFORMED, 0)

    @staticmethod
    def fully_informed(counts: dict) -> bool:
        """Whether the rumour has reached every agent."""
        return counts.get(_SUSCEPTIBLE, 0) == 0
