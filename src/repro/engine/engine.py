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

The engine is also the library's **full scenario reference**: it accepts any
:class:`~repro.scenarios.scenario.Scenario` — restricted interaction
topologies (pairs then come from the scenario's
:class:`~repro.engine.scheduler.PairScheduler` instead of the complete-graph
sampler), Poisson join/leave churn, and crash/drop/Byzantine faults.  The
default no-scenario path is byte-identical to the pre-scenario engine: same
randomness consumption, same snapshot payload, same pinned trajectory
digests.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.engine.base import BaseEngine
from repro.engine.protocol import LEADER_OUTPUT, PopulationProtocol
from repro.engine.rng import RngLike, make_rng
from repro.engine.scheduler import PAIR_CHUNK, PairSampler
from repro.errors import CheckpointError, ConfigurationError

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
    scenario:
        Optional :class:`~repro.scenarios.scenario.Scenario`.  ``None`` (or
        the default complete fault-free scenario, which normalises to
        ``None``) reproduces the idealised model bit-exactly; an active
        scenario swaps the pair source for the scenario topology's
        scheduler and, when the scenario has churn or faults, interleaves
        disruption events with interactions (see
        :mod:`repro.scenarios.models` for the event semantics).
    """

    scenario_capabilities = frozenset({"topology", "churn", "faults"})

    layout_free = True

    def __init__(
        self,
        protocol: PopulationProtocol,
        n: int,
        rng: RngLike = None,
        *,
        scenario=None,
    ) -> None:
        super().__init__(protocol, n, rng, scenario)
        generator = make_rng(rng)
        scenario = self._scenario
        if scenario is None:
            self._sampler = PairSampler(n, generator)
        else:
            self._sampler = scenario.topology.build(n, generator)
        configuration = protocol.initial_configuration(n)
        protocol.validate_configuration(configuration, n)
        encode = self.table.encode
        self._agent_states: List[int] = [encode(s) for s in configuration]
        self._count_agents(self._agent_states)
        self._scenario_rt = None
        if scenario is not None and scenario.has_dynamics:
            from repro.scenarios.runtime import ScenarioRuntime

            join_state_id: Optional[int] = None
            if scenario.churn.join_rate > 0.0:
                try:
                    join_state_id = encode(protocol.initial_state(n))
                except NotImplementedError:
                    raise ConfigurationError(
                        f"protocol {protocol.name!r} has no single initial "
                        "state, so join churn cannot decide what state a "
                        "rejoining agent enters; use a scenario without "
                        "join churn for this protocol"
                    ) from None
                self._ensure_capacity()
                self._seen[join_state_id] = 1
            self._scenario_rt = ScenarioRuntime(
                scenario, n, generator, join_state_id=join_state_id
            )

    # ------------------------------------------------------------------
    def _perform_steps(self, count: int) -> None:
        if count <= 0:
            return
        # Both loops count on a list copy of the ledger's counts (a list item
        # update is far cheaper than an int64 array's), written back once
        # however the loop exits.  The shared table may hold transitions
        # compiled by another engine on the same protocol (ids this run has
        # not seen), so the ledger is sized to it up front; entries compiled
        # mid-run grow it through _grow_ledger.
        self._ensure_capacity()
        counts = self._counts.tolist()
        try:
            if self._scenario_rt is None:
                self._steps(count, counts)
            else:
                self._steps_scenario(count, counts)
        finally:
            self._counts[: len(counts)] = counts

    def _grow_ledger(self, counts: List[int]) -> memoryview:
        """Grow the ledger, and the loop's list copy, after a LUT miss."""
        self._ensure_capacity()
        counts.extend([0] * (self._counts.shape[0] - len(counts)))
        return memoryview(self._seen)

    def _steps(self, count: int, counts: List[int]) -> None:
        """The idealised-world stepping loop."""
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

    def _steps_scenario(self, count: int, counts: List[int]) -> None:
        """The disrupted-world stepping loop (churn and/or faults active).

        Per chunk, after the pair block, the event uniforms are drawn in a
        fixed order — join, leave, crash, drop, one array each, and only for
        events whose rate is non-zero — and fully consumed within the chunk,
        so snapshots at driver boundaries never owe pending event
        randomness.  Per step the event order is: join, leave, crash, then
        the interaction itself (skipped when a participant is dead — time
        still advances, as for a real node addressing a departed peer),
        then the drop check, the transition, and the Byzantine overwrite.
        """
        rt = self._scenario_rt
        scenario = self._scenario
        join_rate = scenario.churn.join_rate
        leave_rate = scenario.churn.leave_rate
        crash_rate = scenario.faults.crash_rate
        drop_p = scenario.faults.drop_p
        byzantine = rt.byzantine
        generator = self._sampler.generator
        agent_states = self._agent_states
        alive = rt.alive
        delta = self.table.delta
        apply_pair = self.table.apply
        seen = memoryview(self._seen)
        remaining = count
        while remaining > 0:
            chunk = min(remaining, PAIR_CHUNK)
            responders, initiators = self._sampler.pair_block(chunk)
            responder_list = responders.tolist()
            initiator_list = initiators.tolist()
            join_u = generator.random(chunk) if join_rate > 0.0 else None
            leave_u = generator.random(chunk) if leave_rate > 0.0 else None
            crash_u = generator.random(chunk) if crash_rate > 0.0 else None
            drop_u = generator.random(chunk) if drop_p > 0.0 else None
            for step in range(chunk):
                if join_u is not None and join_u[step] < join_rate:
                    slot = rt.pick_rejoinable(generator)
                    if slot is not None:
                        old_id = agent_states[slot]
                        join_id = rt.join_state_id
                        agent_states[slot] = join_id
                        counts[old_id] -= 1
                        counts[join_id] += 1
                        alive[slot] = True
                        rt.joins += 1
                if leave_u is not None and leave_u[step] < leave_rate:
                    slot = rt.pick_alive(generator)
                    if slot is not None:
                        alive[slot] = False
                        rt.leaves += 1
                if crash_u is not None and crash_u[step] < crash_rate:
                    slot = rt.pick_alive(generator)
                    if slot is not None:
                        alive[slot] = False
                        rt.crashed[slot] = True
                        rt.crashes += 1
                a = responder_list[step]
                b = initiator_list[step]
                if not (alive[a] and alive[b]):
                    rt.skipped_dead += 1
                    continue
                if drop_u is not None and drop_u[step] < drop_p:
                    rt.dropped += 1
                    continue
                responder_id = agent_states[a]
                initiator_id = agent_states[b]
                result = delta.get((responder_id, initiator_id))
                if result is None:
                    result = apply_pair(responder_id, initiator_id)
                    seen = self._grow_ledger(counts)
                new_responder_id, new_initiator_id = result
                if byzantine is not None and (byzantine[a] or byzantine[b]):
                    # Uniform over the table's registered states (the closure
                    # for GSU19 and GS18).
                    new_responder_id = int(generator.integers(0, len(self.encoder)))
                    rt.byzantine_overwrites += 1
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
    # Scenario inspection
    # ------------------------------------------------------------------
    @property
    def scenario(self):
        """The active scenario, or ``None`` in the default idealised world."""
        return self._scenario

    def alive_leader_count(self) -> int:
        """Number of *alive* agents whose output is the leader symbol.

        Without churn/fault dynamics every agent is alive and this equals
        :meth:`~repro.engine.base.BaseEngine.leader_count`; with dynamics
        dead agents' states are excluded (a departed leader does not lead —
        the honest electedness notion the re-election matrix checks).
        """
        rt = self._scenario_rt
        if rt is None:
            return self.leader_count()
        states = np.asarray(self._agent_states, dtype=np.int64)
        alive_counts = np.bincount(states[rt.alive], minlength=len(self.encoder))
        output_of = self.table.output_of
        return int(
            sum(
                int(alive_counts[sid])
                for sid in np.flatnonzero(alive_counts)
                if output_of(int(sid)) == LEADER_OUTPUT
            )
        )

    def scenario_counters(self) -> Optional[dict]:
        """Disruption-event totals, or ``None`` without churn/faults."""
        rt = self._scenario_rt
        return None if rt is None else rt.counters()

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _state_snapshot(self) -> dict:
        payload = {
            # int32 halves the checkpoint size of the O(n) array; state ids
            # are tiny (the fast-batch engine stores them as int32 for the
            # same reason).
            "agent_states": np.asarray(self._agent_states, dtype=np.int32),
            "sampler": self._sampler.state_snapshot(),
        }
        if self._scenario_rt is not None:
            payload["scenario"] = self._scenario_rt.state_snapshot()
        return payload

    def _state_restore(self, payload: dict) -> None:
        scenario_payload = payload.get("scenario")
        if (scenario_payload is None) != (self._scenario_rt is None):
            raise CheckpointError(
                "snapshot and engine disagree about churn/fault dynamics: "
                "restore a disrupted run into an engine built with the same "
                "scenario"
            )
        self._agent_states = [int(sid) for sid in payload["agent_states"]]
        self._count_agents(self._agent_states)
        self._sampler.state_restore(payload["sampler"])
        if self._scenario_rt is not None:
            self._scenario_rt.state_restore(scenario_payload)

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
