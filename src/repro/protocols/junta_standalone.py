"""Standalone junta election (the coin-level process on its own).

This protocol runs exactly the level-growth rules of the GSU19 coin
preprocessing (Section 5) — but on a configurable *fraction* of the
population designated as coins up front, with the rest acting as inert
"blockers" that stop any coin they meet.  Setting ``coin_fraction = 0.25``
reproduces the environment the coins see inside the full protocol (where the
other three quarters of the agents are leaders and inhibitors), which is the
workload used by the Figure 1 experiment; setting it to ``1.0`` reproduces
the GS18 whole-population junta election.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.engine.closure import cached_closure, reachable_closure
from repro.engine.protocol import FOLLOWER_OUTPUT, PopulationProtocol
from repro.errors import ConfigurationError
from repro.types import CoinMode

__all__ = ["JuntaElection", "JuntaState"]


@dataclass(frozen=True)
class JuntaState:
    """State of an agent in the standalone junta election."""

    is_coin: bool = True
    level: int = 0
    mode: CoinMode = CoinMode.ADVANCING


class JuntaElection(PopulationProtocol):
    """Level growth with stopping — the junta-formation process in isolation."""

    name = "junta-election"

    def __init__(self, phi: int, coin_fraction: float = 0.25) -> None:
        if phi < 1:
            raise ConfigurationError(f"phi must be >= 1, got {phi}")
        if not 0.0 < coin_fraction <= 1.0:
            raise ConfigurationError(
                f"coin_fraction must lie in (0, 1], got {coin_fraction}"
            )
        self.phi = phi
        self.coin_fraction = coin_fraction

    @classmethod
    def for_population(
        cls, n: int, *, phi: int = None, coin_fraction: float = 0.25
    ) -> "JuntaElection":
        """Use the same ``Φ`` calibration as the full protocol."""
        from repro.core.params import GSUParams

        params = GSUParams.from_population_size(n)
        return cls(phi=params.phi if phi is None else phi, coin_fraction=coin_fraction)

    # ------------------------------------------------------------------
    def initial_state(self, n: int) -> JuntaState:
        return JuntaState()

    def initial_configuration(self, n: int) -> Sequence[JuntaState]:
        coins = self._coin_count(n)
        return [JuntaState(is_coin=True)] * coins + [
            JuntaState(is_coin=False, mode=CoinMode.STOPPED)
        ] * (n - coins)

    def initial_counts(self, n: int):
        # O(k) form for the configuration-level engines (n = 10^7-10^8 runs
        # never materialise a per-agent list).
        coins = self._coin_count(n)
        return {
            JuntaState(is_coin=True): coins,
            JuntaState(is_coin=False, mode=CoinMode.STOPPED): n - coins,
        }

    def state_closure(self):
        """The states reachable from a coin or a blocker, with their LUT: one
        generic BFS per ``Φ`` (the coin fraction changes no state), cached
        in memory and on disk."""
        seeds = [JuntaState(), JuntaState(is_coin=False, mode=CoinMode.STOPPED)]
        return cached_closure(
            type(self), (self.phi,), lambda: reachable_closure(self.transition, seeds)
        )

    def _coin_count(self, n: int) -> int:
        coins = int(round(self.coin_fraction * n))
        return min(max(coins, 1), n)

    def transition(self, responder: JuntaState, initiator: JuntaState):
        if not responder.is_coin or responder.mode != CoinMode.ADVANCING:
            return responder, initiator
        if not initiator.is_coin or initiator.level < responder.level:
            return (
                JuntaState(is_coin=True, level=responder.level, mode=CoinMode.STOPPED),
                initiator,
            )
        if responder.level < self.phi:
            new_level = responder.level + 1
            mode = CoinMode.STOPPED if new_level >= self.phi else CoinMode.ADVANCING
            return JuntaState(is_coin=True, level=new_level, mode=mode), initiator
        return (
            JuntaState(is_coin=True, level=responder.level, mode=CoinMode.STOPPED),
            initiator,
        )

    def output(self, state: JuntaState) -> str:
        return FOLLOWER_OUTPUT

    # ------------------------------------------------------------------
    def junta_size(self, counts: dict) -> int:
        """Number of coins that reached the top level in a state-count dict."""
        return sum(
            count
            for state, count in counts.items()
            if state.is_coin and state.level >= self.phi
        )

    def level_histogram(self, counts: dict) -> dict:
        """``{level: number of coins at exactly that level}``."""
        histogram: dict = {}
        for state, count in counts.items():
            if state.is_coin:
                histogram[state.level] = histogram.get(state.level, 0) + count
        return histogram
