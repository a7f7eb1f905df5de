"""Junta-driven phase clock (Section 3 of the paper).

The clock is defined by two ingredients:

* the windowed maximum

  .. math::

     \\max_Γ(x, y) = \\begin{cases}
        \\max(x, y) & |x - y| \\le Γ/2 \\\\
        \\min(x, y) & |x - y| > Γ/2
     \\end{cases}

  which treats phases as points on a cycle of length ``Γ`` and picks the one
  that is "ahead" within a window of ``Γ/2`` — an agent that has run too far
  ahead of a straggler is pulled *back*, which is what keeps the population's
  phases in a coherent band; and

* the transition rules

  .. math::

     \\langle follower, t_1 \\rangle + \\langle t_2 \\rangle &\\to
        \\langle follower, \\max_Γ(t_1, t_2) \\rangle + \\langle t_2 \\rangle \\\\
     \\langle injunta,  t_1 \\rangle + \\langle t_2 \\rangle &\\to
        \\langle injunta,  \\max_Γ(t_1, t_2 +_Γ 1) \\rangle + \\langle t_2 \\rangle

  applied to the **responder**; junta members therefore act as the clock's
  pacemakers.

An agent *passes through 0* when an update strictly decreases its numeric
phase (a wrap-around); the interval between two consecutive passes is a
*round*.  Interactions whose start and end phases both lie in
``[0, Γ/2)`` are *early*; those with both in ``[Γ/2, Γ)`` are *late*.  The
GSU19 protocol performs coin flips in the early half of a round and the
heads-epidemic in the late half.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.engine.closure import PhaseFactoring, closure_file, reachable_closure
from repro.engine.protocol import FOLLOWER_OUTPUT, PopulationProtocol
from repro.errors import ConfigurationError
from repro.types import ClockMode, State, TransitionResult

__all__ = [
    "max_gamma",
    "PhaseClockRules",
    "PhaseClockedProtocol",
    "ClockState",
    "JuntaPhaseClockProtocol",
]

#: Reachable closures of every :class:`PhaseClockedProtocol` calibration:
#: ``(class, Γ, Φ, Ψ) -> (states, read-only (K, K) LUT)``, shared by every
#: instance of the calibration (``n_hint`` is validation-only).  Backed by
#: one file per calibration on disk (:func:`~repro.engine.closure.closure_file`).
_CLOSURE_CACHE: Dict[tuple, Tuple[Tuple[State, ...], np.ndarray]] = {}


def max_gamma(x: int, y: int, gamma: int) -> int:
    """The windowed maximum ``max_Γ`` from Section 3.

    Returns ``max(x, y)`` when the two phases are within ``Γ/2`` of each
    other and ``min(x, y)`` otherwise.  Both arguments must lie in
    ``[0, Γ)``.
    """
    if not (0 <= x < gamma and 0 <= y < gamma):
        raise ValueError(f"phases must lie in [0, {gamma}), got {x}, {y}")
    if abs(x - y) <= gamma // 2:
        return x if x >= y else y
    return x if x <= y else y


@dataclass(frozen=True)
class PhaseClockRules:
    """Phase-clock arithmetic for a fixed modulus ``Γ``.

    The class bundles the responder update rule, pass-through-zero detection
    and the early/late classification used by the protocol's ``early→`` and
    ``late→`` transition arrows.
    """

    gamma: int

    def __post_init__(self) -> None:
        if self.gamma < 4 or self.gamma % 2 != 0:
            raise ConfigurationError(
                f"phase clock modulus must be an even integer >= 4, got {self.gamma}"
            )

    # ------------------------------------------------------------------
    def advance(self, responder_phase: int, initiator_phase: int, is_junta: bool) -> int:
        """New phase of the responder after one interaction."""
        if is_junta:
            bumped = (initiator_phase + 1) % self.gamma
            return max_gamma(responder_phase, bumped, self.gamma)
        return max_gamma(responder_phase, initiator_phase, self.gamma)

    def passed_zero(self, old_phase: int, new_phase: int) -> bool:
        """Whether the update wrapped past 0 ("pass through 0").

        The paper's definition: the clock passes through 0 whenever its
        current phase is *reduced in absolute terms*.
        """
        return new_phase < old_phase

    def passed_half(self, old_phase: int, new_phase: int) -> bool:
        """Whether the update crossed ``Γ/2`` (start of the late half)."""
        half = self.gamma // 2
        return old_phase < half <= new_phase

    def is_early_phase(self, phase: int) -> bool:
        """Whether ``phase`` lies in the early half ``[0, Γ/2)``."""
        return phase < self.gamma // 2

    def is_early(self, old_phase: int, new_phase: int) -> bool:
        """Whether an interaction qualifies for an ``early→`` rule
        (both start and end phase in the early half)."""
        half = self.gamma // 2
        return old_phase < half and new_phase < half

    def is_late(self, old_phase: int, new_phase: int) -> bool:
        """Whether an interaction qualifies for a ``late→`` rule
        (both start and end phase in the late half)."""
        half = self.gamma // 2
        return old_phase >= half and new_phase >= half

    def qualifier(self, old_phase: int, new_phase: int) -> int:
        """Code of the arrows one update qualifies for: bit 0 ``→0``
        (:meth:`passed_zero`), bit 1 ``early→`` (:meth:`is_early`), bit 2
        ``late→`` (:meth:`is_late`)."""
        return (
            self.passed_zero(old_phase, new_phase)
            | self.is_early(old_phase, new_phase) << 1
            | self.is_late(old_phase, new_phase) << 2
        )

    def tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`advance` as a ``(Γ, Γ, 2)`` array by ``[responder phase,
        initiator phase, is_junta]`` and :meth:`qualifier` as a ``(Γ, Γ)``
        array by ``[old phase, new phase]``."""
        phases = range(self.gamma)
        advance = [
            [[self.advance(r, i, junta) for junta in (0, 1)] for i in phases]
            for r in phases
        ]
        qualifier = [[self.qualifier(old, new) for new in phases] for old in phases]
        return np.array(advance, dtype=np.intp), np.array(qualifier, dtype=np.intp)


class PhaseClockedProtocol(PopulationProtocol):
    """A Γ-phase clock step on the responder, then phase-blind rules.

    GSU19 and GS18 have this shape.  :meth:`transition` advances the
    responder's clock (:class:`PhaseClockRules`, paced by the junta) and
    hands the pair to :meth:`apply_rules` with the step's
    :meth:`PhaseClockRules.qualifier` code; the rules read no phase.  That
    is the :class:`~repro.engine.closure.PhaseFactoring` the closure BFS
    evaluates, so a calibration's whole reachable state space enumerates
    in under a second (:meth:`reachable_state_closure`), and every
    per-agent run starts on a table adopted from it (:meth:`state_closure`).

    ``params`` carries ``gamma``, ``phi``, ``psi`` and ``n_hint``; states
    carry ``phase``, ``with_phase(phase)`` and ``is_junta(phi)``.
    """

    def __init__(self, params) -> None:
        self.params = params
        self.clock = PhaseClockRules(params.gamma)

    @abc.abstractmethod
    def apply_rules(self, responder: State, initiator: State, qualifier: int) -> TransitionResult:
        """The rules on a pair whose responder's clock advanced with the given
        :meth:`PhaseClockRules.qualifier` code; they must not read a phase."""

    def transition(self, responder: State, initiator: State) -> TransitionResult:
        clock, old_phase = self.clock, responder.phase
        junta = responder.is_junta(self.params.phi)
        new_phase = clock.advance(old_phase, initiator.phase, junta)
        qualifier = clock.qualifier(old_phase, new_phase)
        return self.apply_rules(responder.with_phase(new_phase), initiator, qualifier)

    def _closure_key(self) -> tuple:
        params = self.params
        return (type(self), params.gamma, params.phi, params.psi)

    def reachable_state_closure(self) -> Tuple[State, ...]:
        """Every state reachable from the initial state, in BFS order.

        Computed once per calibration and cached with its transition LUT,
        whatever the instance's ``n_hint``: in this process, and in the
        calibration's closure file, which a later process loads instead of
        running the BFS again.  The BFS runs :meth:`apply_rules` once per
        phase-free pair and qualifier, and checks a sample of the LUT
        against :meth:`transition`.
        """
        key = self._closure_key()
        cached = _CLOSURE_CACHE.get(key)
        if cached is None:
            stored = closure_file(type(self), key[1:])
            cached = stored.load() if stored is not None else None
            if cached is None:
                phi = self.params.phi
                factoring = PhaseFactoring(
                    *self.clock.tables(),
                    lambda state: (state.phase, state.with_phase(0), state.is_junta(phi)),
                    lambda phase, part: part.with_phase(phase),
                    self.apply_rules,
                )
                seed = self.initial_state(self.params.n_hint)
                states, lut = reachable_closure(self.transition, [seed], factoring=factoring)
                cached = (tuple(states), lut)
                if stored is not None:
                    stored.save(*cached)
            _CLOSURE_CACHE[key] = cached
        return cached[0]

    def state_closure(self) -> Tuple[Tuple[State, ...], np.ndarray]:
        """:meth:`reachable_state_closure` and its cached transition LUT."""
        states = self.reachable_state_closure()
        return states, _CLOSURE_CACHE[self._closure_key()][1]


@dataclass(frozen=True)
class ClockState:
    """State of an agent in the standalone phase-clock protocol."""

    phase: int = 0
    mode: ClockMode = ClockMode.FOLLOWER
    #: Number of completed rounds, capped so the state space stays finite.
    rounds: int = 0


class JuntaPhaseClockProtocol(PopulationProtocol):
    """Standalone junta-driven phase clock.

    Used to validate Theorem 3.2 empirically: a fixed fraction of agents is
    designated as the junta in the initial configuration and the protocol
    simply runs the clock, counting completed rounds (up to ``max_rounds``)
    in each agent's state so round lengths can be measured from snapshots.

    Parameters
    ----------
    gamma:
        Clock modulus ``Γ``.
    junta_size:
        Absolute number of junta agents placed in the initial configuration.
    max_rounds:
        Cap on the per-agent round counter (keeps the state space finite).
    """

    name = "junta-phase-clock"

    def __init__(self, gamma: int = 32, junta_size: int = 8, max_rounds: int = 64) -> None:
        if junta_size < 1:
            raise ConfigurationError(f"junta_size must be >= 1, got {junta_size}")
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        self.rules = PhaseClockRules(gamma)
        self.gamma = gamma
        self.junta_size = junta_size
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------
    @classmethod
    def for_population(
        cls, n: int, *, gamma: int = 32, junta_exponent: float = 0.6, max_rounds: int = 64
    ) -> "JuntaPhaseClockProtocol":
        """Build a clock whose junta has size ``⌈n^junta_exponent⌉``."""
        junta_size = max(1, int(round(n**junta_exponent)))
        junta_size = min(junta_size, n)
        return cls(gamma=gamma, junta_size=junta_size, max_rounds=max_rounds)

    # ------------------------------------------------------------------
    def initial_state(self, n: int) -> ClockState:
        return ClockState()

    def initial_configuration(self, n: int) -> Sequence[ClockState]:
        if self.junta_size > n:
            raise ConfigurationError(
                f"junta_size={self.junta_size} exceeds population size {n}"
            )
        junta = [ClockState(mode=ClockMode.INJUNTA)] * self.junta_size
        followers = [ClockState(mode=ClockMode.FOLLOWER)] * (n - self.junta_size)
        return junta + followers

    def transition(self, responder: ClockState, initiator: ClockState):
        new_phase = self.rules.advance(
            responder.phase, initiator.phase, responder.mode == ClockMode.INJUNTA
        )
        rounds = responder.rounds
        if self.rules.passed_zero(responder.phase, new_phase):
            rounds = min(rounds + 1, self.max_rounds)
        if new_phase == responder.phase and rounds == responder.rounds:
            return responder, initiator
        return (
            ClockState(phase=new_phase, mode=responder.mode, rounds=rounds),
            initiator,
        )

    def output(self, state: ClockState) -> str:
        return FOLLOWER_OUTPUT

    # ------------------------------------------------------------------
    def phase_of(self, state: ClockState) -> int:
        """Accessor used by the round-tracking utilities."""
        return state.phase

    def rounds_of(self, state: ClockState) -> int:
        """Completed-round counter of an agent."""
        return state.rounds
