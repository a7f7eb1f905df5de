"""Exact per-agent sequential engine.

:class:`SequentialEngine` is the reference implementation of the
probabilistic population-protocol model: one uniformly random ordered pair of
distinct agents interacts per step.  Agent states are stored as integer
identifiers in a flat Python list; the deterministic transition function
comes from the protocol's shared compiled
:class:`~repro.engine.table.TransitionTable` (its ``delta`` dict is the
scalar hot-path lookup), so the per-interaction cost is two list reads, one
dict lookup and two list writes.  Pairs are drawn from NumPy in blocks of
:data:`~repro.engine.scheduler.PAIR_CHUNK`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.engine.base import BaseEngine
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike, make_rng
from repro.engine.scheduler import PAIR_CHUNK, PairSampler

__all__ = ["SequentialEngine"]


class SequentialEngine(BaseEngine):
    """Exact agent-level simulation of a population protocol.

    Parameters
    ----------
    protocol:
        The protocol to simulate.
    n:
        Population size (>= 2).
    rng:
        Seed or :class:`numpy.random.Generator`.
    """

    layout_free = True

    def __init__(
        self,
        protocol: PopulationProtocol,
        n: int,
        rng: RngLike = None,
    ) -> None:
        super().__init__(protocol, n, rng)
        self._sampler = PairSampler(n, make_rng(rng))
        configuration = protocol.initial_configuration(n)
        protocol.validate_configuration(configuration, n)
        encode = self.table.encode
        self._agent_states: List[int] = [encode(s) for s in configuration]
        self._count_agents(self._agent_states)

    # ------------------------------------------------------------------
    def _perform_steps(self, count: int) -> None:
        if count <= 0:
            return
        # The loop counts on a list copy of the ledger's counts (a list item
        # update is far cheaper than an int64 array's), written back once
        # however the loop exits.  The shared table may hold transitions
        # compiled by another engine on the same protocol (ids this run has
        # not seen), so the ledger is sized to it up front; entries compiled
        # mid-run grow it through _grow_ledger.
        self._ensure_capacity()
        counts = self._counts.tolist()
        try:
            self._steps(count, counts)
        finally:
            self._counts[: len(counts)] = counts

    def _grow_ledger(self, counts: List[int]) -> memoryview:
        """Grow the ledger, and the loop's list copy, after a LUT miss."""
        self._ensure_capacity()
        counts.extend([0] * (self._counts.shape[0] - len(counts)))
        return memoryview(self._seen)

    def _steps(self, count: int, counts: List[int]) -> None:
        """The stepping loop: one chunk of pairs per ``pair_block`` call."""
        agent_states = self._agent_states
        delta = self.table.delta
        apply_pair = self.table.apply
        seen = memoryview(self._seen)
        remaining = count
        while remaining > 0:
            chunk = min(remaining, PAIR_CHUNK)
            responders, initiators = self._sampler.pair_block(chunk)
            responder_list = responders.tolist()
            initiator_list = initiators.tolist()
            for a, b in zip(responder_list, initiator_list):
                responder_id = agent_states[a]
                initiator_id = agent_states[b]
                result = delta.get((responder_id, initiator_id))
                if result is None:
                    result = apply_pair(responder_id, initiator_id)
                    seen = self._grow_ledger(counts)
                new_responder_id, new_initiator_id = result
                if new_responder_id != responder_id:
                    agent_states[a] = new_responder_id
                    counts[responder_id] -= 1
                    counts[new_responder_id] += 1
                    seen[new_responder_id] = 1
                if new_initiator_id != initiator_id:
                    agent_states[b] = new_initiator_id
                    counts[initiator_id] -= 1
                    counts[new_initiator_id] += 1
                    seen[new_initiator_id] = 1
            remaining -= chunk
            self.interactions += chunk

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _state_snapshot(self) -> dict:
        return {
            # int32 halves the checkpoint size of the O(n) array; state ids
            # are tiny (the fast-batch engine stores them as int32 for the
            # same reason).
            "agent_states": np.asarray(self._agent_states, dtype=np.int32),
            "sampler": self._sampler.state_snapshot(),
        }

    def _state_restore(self, payload: dict) -> None:
        self._agent_states = [int(sid) for sid in payload["agent_states"]]
        self._count_agents(self._agent_states)
        self._sampler.state_restore(payload["sampler"])

    # ------------------------------------------------------------------
    def agent_state(self, index: int):
        """State of agent ``index`` (useful in tests and traces)."""
        return self.encoder.decode(self._agent_states[index])

    def agent_state_ids(self) -> List[int]:
        """A copy of the per-agent state-identifier array."""
        return list(self._agent_states)

    def population_snapshot(self) -> List:
        """Decoded states of all agents, by agent index."""
        decode = self.encoder.decode
        return [decode(sid) for sid in self._agent_states]
