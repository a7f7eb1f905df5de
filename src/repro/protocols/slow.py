"""The constant-space leader election of Angluin et al. (PODC 2004).

Two states: leader (``L``) and follower (``F``); every agent starts as a
leader and whenever two leaders meet, the responder steps down::

    L + L → F + L

The protocol is trivially correct (the number of leaders is non-increasing
and can never reach zero) but slow: the expected parallel time to reach a
single leader is ``Θ(n)`` (the last two leaders need ``Θ(n²)`` interactions
to meet).  It is the "slow backup" used inside the GSU19 protocol and the
first row of the reproduction's Table 1.
"""

from __future__ import annotations

from repro.engine.closure import cached_closure, reachable_closure
from repro.engine.protocol import FOLLOWER_OUTPUT, LEADER_OUTPUT, PopulationProtocol

__all__ = ["SlowLeaderElection"]

_LEADER = "L"
_FOLLOWER = "F"


class SlowLeaderElection(PopulationProtocol):
    """Two-state, ``Θ(n)`` expected-time leader election."""

    name = "slow-leader-election"

    def initial_state(self, n: int) -> str:
        return _LEADER

    def initial_counts(self, n: int):
        # O(k) form for the configuration-level engines (n = 10^7-10^8 runs
        # never materialise a per-agent list).
        return {_LEADER: n}

    def transition(self, responder: str, initiator: str):
        if responder == _LEADER and initiator == _LEADER:
            return _FOLLOWER, _LEADER
        return responder, initiator

    def output(self, state: str) -> str:
        return LEADER_OUTPUT if state == _LEADER else FOLLOWER_OUTPUT

    def state_closure(self):
        """Leader and follower, with their LUT, cached in memory and on
        disk."""
        seeds = [_LEADER, _FOLLOWER]
        return cached_closure(
            type(self), (), lambda: reachable_closure(self.transition, seeds)
        )
