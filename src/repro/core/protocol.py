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

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.clocks.phase_clock import PhaseClockRules
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
from repro.engine.closure import PhaseFactoring, reachable_closure
from repro.engine.convergence import SingleLeader
from repro.engine.dispatch import COUNTBATCH_FORCE_N
from repro.engine.protocol import FOLLOWER_OUTPUT, LEADER_OUTPUT, PopulationProtocol
from repro.types import Role

__all__ = ["GSULeaderElection", "CLOSURE_MIN_N_HINT"]

#: Population-size hint from which :meth:`GSULeaderElection.canonical_states`
#: computes the reachable-state closure.  Tied by import to the dispatcher's
#: *force* threshold (:data:`repro.engine.dispatch.COUNTBATCH_FORCE_N`) —
#: the size from which GSU19 is actually count-dispatched.  Below it the
#: cost model always keeps GSU19 on the per-agent engines (the occupied
#: frontier prices count-batch out), so the BFS (0.7-0.8 s on a 2-CPU host
#: at the default calibrations: ``K = 1,348`` states at ``Γ=24, Φ=1, Ψ=3``,
#: ``1,789`` at ``n = 10^8``'s ``Φ=2, Ψ=4``) and its ``(K, K)`` LUT would be
#: pure construction overhead; those instances keep the lazily discovered state
#: space — which also keeps their seed-pinned count-engine trajectories
#: unchanged — and the count engines still run them fine via lazy growth
#: (or an explicit :meth:`GSULeaderElection.reachable_state_closure`).
CLOSURE_MIN_N_HINT = COUNTBATCH_FORCE_N

#: Reachable-closure cache: the closure and its read-only ``(K, K)``
#: transition LUT.  Keyed by ``(gamma, phi, psi)`` — the only parameters
#: the transition function reads (``n_hint`` is validation-only), so every
#: protocol instance sharing a calibration shares one BFS and one LUT.
_CLOSURE_CACHE: Dict[
    Tuple[int, int, int], Tuple[Tuple[GSUAgentState, ...], np.ndarray]
] = {}

#: The rule context of each :meth:`PhaseClockRules.qualifier` code.
_CONTEXTS = tuple(
    InteractionContext(bool(code & 1), bool(code & 2), bool(code & 4))
    for code in range(8)
)


class GSULeaderElection(PopulationProtocol):
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

    def __init__(self, params: GSUParams) -> None:
        self.params = params
        self.clock = PhaseClockRules(params.gamma)

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

    def canonical_states(self) -> Optional[Tuple[GSUAgentState, ...]]:
        """The reachable-state closure — for count-batch-scale instances.

        Every field of the frozen :class:`~repro.core.state.GSUAgentState` is
        bounded for fixed parameters (``phase < Γ``, ``level ≤ Φ``,
        ``drag ≤ Ψ``, ``cnt ≤ 2Φ+3``), so the set of states reachable from
        the all-zero start is finite and
        :func:`~repro.engine.closure.reachable_states` enumerates it exactly.
        The BFS runs the rule families once per phase-free pair and clock
        qualifier (about 0.7 s at the default calibration on a 2-CPU host)
        and builds a ``(K, K)`` LUT, so it is only performed when the
        parameters were derived for a population at configuration-space
        scale (``n_hint >= CLOSURE_MIN_N_HINT``), where it is amortised
        against the run itself; the result is cached per ``(gamma, phi,
        psi)`` in a module-level cache shared by all instances.  Smaller
        instances return ``None`` and keep the lazily discovered state
        space, which leaves their seed-pinned count-engine trajectories
        byte-identical to earlier releases.  Call
        :meth:`reachable_state_closure` directly to compute the closure for
        a small instance explicitly.
        """
        if self.params.n_hint < CLOSURE_MIN_N_HINT:
            return None
        return self.reachable_state_closure()

    def canonical_transitions(self) -> Optional[np.ndarray]:
        """The closure BFS's transition LUT, whenever the closure is declared.

        Tables compiled from this instance adopt it and start with every
        pair of the closure compiled, so count-space runs never take a LUT
        miss.
        """
        if self.canonical_states() is None:
            return None
        params = self.params
        return _CLOSURE_CACHE[(params.gamma, params.phi, params.psi)][1]

    def occupied_states_hint(self) -> int:
        """Empirical envelope of the simultaneously occupied state count.

        Measured runs occupy far fewer states at a time than the reachable
        closure declares (40-75 at the default calibration across
        ``n = 10^6``-``10^7``, versus ``K = 1,789`` reachable): the phase
        clock keeps each sub-population's phases in a narrow moving band.
        The bound below — a few phases' worth of every role's field
        combinations — envelopes every measurement with ~2x headroom and
        feeds the dispatcher's count-batch cost model (engine choice only,
        never correctness).
        """
        return 4 * self.params.gamma + 4 * (self.params.phi + self.params.psi)

    def reachable_state_closure(self) -> Tuple[GSUAgentState, ...]:
        """Compute (and cache per ``(gamma, phi, psi)``) the reachable states.

        Unlike :meth:`canonical_states` this always runs the BFS, whatever
        the instance's ``n_hint`` — the explicit opt-in for state-space
        audits and for count-dispatching small calibrations.  The same BFS
        fills the transition LUT that :meth:`canonical_transitions` serves,
        cached with the closure.
        """
        key = (self.params.gamma, self.params.phi, self.params.psi)
        cached = _CLOSURE_CACHE.get(key)
        if cached is None:
            phi = self.params.phi
            factoring = PhaseFactoring(
                *self.clock.tables(),
                lambda state: (state.phase, state.with_phase(0), state.is_junta(phi)),
                lambda phase, part: part.with_phase(phase),
                self.apply_rules,
            )
            states, lut = reachable_closure(
                self.transition, [zero_state()], factoring=factoring
            )
            cached = _CLOSURE_CACHE[key] = (tuple(states), lut)
        return cached[0]

    def transition(self, responder: GSUAgentState, initiator: GSUAgentState):
        # 1. Phase-clock update of the responder; steps 2-7 in apply_rules.
        clock, old_phase = self.clock, responder.phase
        junta = responder.is_junta(self.params.phi)
        new_phase = clock.advance(old_phase, initiator.phase, junta)
        qualifier = clock.qualifier(old_phase, new_phase)
        return self.apply_rules(responder.with_phase(new_phase), initiator, qualifier)

    def apply_rules(
        self, responder: GSUAgentState, initiator: GSUAgentState, qualifier: int
    ):
        """Steps 2-7 on a pair whose responder's clock advanced with the
        given :meth:`PhaseClockRules.qualifier` code.  The rules never read a
        phase, so the closure BFS runs them once per phase-free pair."""
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

    def transition_key(self) -> tuple:
        # n_hint is validation-only: every size of a calibration shares a table.
        params, cls = self.params, type(self)
        return (f"{cls.__module__}.{cls.__qualname__}", params.gamma, params.phi, params.psi)

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
