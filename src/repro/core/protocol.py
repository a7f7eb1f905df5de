"""The assembled GSU19 leader-election protocol.

:class:`GSULeaderElection` wires the rule modules of this package into a
single deterministic transition function, in the order the paper composes
them (non-conflicting rules of different sub-populations "happen in
parallel"; within one interaction we apply them to the responder in a fixed
order, which is equivalent because each rule family touches disjoint fields
or is guarded by the role):

1. phase-clock update of the responder (Section 3),
2. initialisation / role assignment and deactivation (Section 4, rules (1)–(2)),
3. coin preprocessing — level growth and junta formation (Section 5),
4. inhibitor drag preprocessing and slowed-down signalling (Section 7, rule (8)),
5. leader round reset (rule (3)), coin flip (rules (4)–(5)) and heads
   epidemic (rules (6)–(7)) — Sections 6 and 7,
6. drag adoption / increment (rules (9)–(10)) — Section 7,
7. the slow backup with seniority (Section 8, rule (11)).

The output map sends the *alive* candidates (``L⟨A⟩`` and ``L⟨P⟩``) to the
leader output and every other state to the follower output, exactly as in
Section 8.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.clocks.phase_clock import PhaseClockedProtocol
from repro.core.backup import apply_slow_backup
from repro.core.context import InteractionContext
from repro.core.fast_elimination import (
    apply_coin_flip,
    apply_heads_epidemic,
    apply_round_reset,
)
from repro.core.final_elimination import apply_drag_rules
from repro.core.inhibitors import apply_inhibitor_rules
from repro.core.junta import apply_coin_preprocessing
from repro.core.params import GSUParams
from repro.core.roles import apply_initialisation
from repro.core.state import GSUAgentState, is_alive_leader, zero_state
from repro.engine.base import BaseEngine
from repro.engine.convergence import SingleLeader
from repro.engine.protocol import FOLLOWER_OUTPUT, LEADER_OUTPUT
from repro.types import Role

__all__ = ["GSULeaderElection"]

#: The rule context of each :meth:`PhaseClockRules.qualifier` code.
_CONTEXTS = tuple(
    InteractionContext(bool(code & 1), bool(code & 2), bool(code & 4))
    for code in range(8)
)


class GSULeaderElection(PhaseClockedProtocol):
    """The ``O(log n · log log n)`` expected-time leader election of GSU19.

    Instances are deterministic transition machines parameterised by
    :class:`~repro.core.params.GSUParams`; all randomness comes from the
    simulation scheduler.  Use :meth:`for_population` to build an instance
    with parameters derived from the population size::

        protocol = GSULeaderElection.for_population(1 << 12)
        result = run_protocol(protocol, 1 << 12, seed=3, max_parallel_time=4000)
        assert result.leader_count == 1
    """

    name = "gsu19-leader-election"

    # ------------------------------------------------------------------
    @classmethod
    def for_population(
        cls,
        n: int,
        *,
        gamma: Optional[int] = None,
        phi: Optional[int] = None,
        psi: Optional[int] = None,
    ) -> "GSULeaderElection":
        """Build the protocol with parameters derived from ``n``."""
        return cls(GSUParams.from_population_size(n, gamma=gamma, phi=phi, psi=psi))

    # ------------------------------------------------------------------
    # PopulationProtocol interface
    # ------------------------------------------------------------------
    def initial_state(self, n: int) -> GSUAgentState:
        return zero_state()

    def initial_configuration(self, n: int) -> Sequence[GSUAgentState]:
        return [zero_state()] * n

    def initial_counts(self, n: int) -> Dict[GSUAgentState, int]:
        # O(k) form of the uniform start: the configuration-space engines
        # construct at n = 10^7-10^8 without an O(n) per-agent list.
        return {zero_state(): n}

    def apply_rules(
        self, responder: GSUAgentState, initiator: GSUAgentState, qualifier: int
    ):
        """Steps 2-7 on a pair whose responder's clock (step 1, in
        :meth:`~repro.clocks.phase_clock.PhaseClockedProtocol.transition`)
        advanced with the given :meth:`PhaseClockRules.qualifier` code.  The
        rules never read a phase, so the closure BFS runs them once per
        phase-free pair."""
        params = self.params
        ctx = _CONTEXTS[qualifier]

        # 2. Initialisation / role assignment.  If a role was assigned (or an
        # agent deactivated) in this interaction, the agents do not also act
        # in their new roles within the same interaction — the remaining rule
        # families are skipped.  Without this, e.g. a freshly created coin
        # would immediately be stopped by its own creation partner.
        updated, partner = apply_initialisation(responder, initiator, ctx, params)
        if updated.role != responder.role or partner.role != initiator.role:
            return updated, partner

        # 3-7. Sub-population rules (each family is role-guarded).
        updated, partner = apply_coin_preprocessing(updated, partner, ctx, params)
        updated, partner = apply_inhibitor_rules(updated, partner, ctx, params)
        updated, partner = apply_round_reset(updated, partner, ctx, params)
        updated, partner = apply_coin_flip(updated, partner, ctx, params)
        updated, partner = apply_heads_epidemic(updated, partner, ctx, params)
        updated, partner = apply_drag_rules(updated, partner, ctx, params)
        updated, partner = apply_slow_backup(updated, partner, ctx, params)
        return updated, partner

    def output(self, state: GSUAgentState) -> str:
        return LEADER_OUTPUT if is_alive_leader(state) else FOLLOWER_OUTPUT

    def describe_state(self, state: GSUAgentState) -> str:
        return state.describe()

    # ------------------------------------------------------------------
    # Convergence helpers
    # ------------------------------------------------------------------
    @staticmethod
    def no_uninitialised_agents(engine: BaseEngine) -> bool:
        """No agent is still in role ``0`` or ``X``.

        Once this holds, no new leader candidates can ever be created (rule
        (1a) is the only source of ``L`` agents), so "exactly one alive
        candidate" is a stable certificate of successful election.  The
        check is one vector reduction over the compiled uninitialised-role
        view (:data:`repro.core.monitor.UNINITIALISED_VIEW`), so evaluating
        it every convergence check costs O(occupied frontier) even at
        ``n = 10^8``.
        """
        from repro.core.monitor import UNINITIALISED_VIEW

        return UNINITIALISED_VIEW.count(engine) == 0

    def convergence(self) -> SingleLeader:
        """The convergence predicate used for this protocol's experiments."""
        from repro.core.monitor import UNINITIALISED_VIEW

        return SingleLeader(
            extra_condition=self.no_uninitialised_agents,
            description=(
                "exactly one alive leader candidate and no uninitialised agents"
            ),
            views=(UNINITIALISED_VIEW,),
        )
