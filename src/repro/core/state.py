"""Agent states of the GSU19 protocol.

Every agent carries the same frozen dataclass :class:`GSUAgentState`; the
``role`` field says which sub-population the agent belongs to and which of
the remaining fields are meaningful.  Fields that are irrelevant for a role
are always kept at their canonical defaults (the constructor helpers below
enforce this), so the number of *distinct* states that ever occur matches
the protocol's true space usage:

====================  =========================================================
role                  meaningful fields
====================  =========================================================
``ZERO`` / ``X``      ``phase`` (the agent only follows the clock)
``DEACTIVATED``       ``phase``
``COIN``              ``phase``, ``level`` (0…Φ), ``coin_mode``
``INHIBITOR``         ``phase``, ``drag`` (0…Ψ), ``inhibitor_mode``, ``elevation``
``LEADER``            ``phase``, ``leader_mode``, ``cnt``, ``flip``, ``void``,
                      ``drag``
====================  =========================================================

The paper's space bound of ``O(log log n)`` states per agent corresponds to
the per-role products above: the clock contributes the constant ``Γ``, the
level / drag / cnt counters each contribute ``O(log log n)`` values, and a
leader never uses ``cnt`` and ``drag`` at the same time (``cnt > 0`` during
fast elimination implies ``drag = 0``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

from repro.types import CoinMode, Elevation, Flip, LeaderMode, Role

__all__ = [
    "GSUAgentState",
    "zero_state",
    "intermediate_state",
    "deactivated_state",
    "coin_state",
    "inhibitor_state",
    "leader_state",
    "is_alive_leader",
    "is_active_leader",
    "seniority_key",
]


@dataclass(frozen=True)
class GSUAgentState:
    """Complete state of one agent in the GSU19 protocol."""

    role: Role = Role.ZERO
    phase: int = 0
    # --- coin fields -------------------------------------------------
    level: int = 0
    coin_mode: CoinMode = CoinMode.ADVANCING
    # --- inhibitor fields --------------------------------------------
    drag: int = 0
    inhibitor_mode: CoinMode = CoinMode.ADVANCING
    elevation: Elevation = Elevation.LOW
    # --- leader fields -----------------------------------------------
    leader_mode: LeaderMode = LeaderMode.ACTIVE
    cnt: int = 0
    flip: Flip = Flip.NONE
    void: bool = True

    # ------------------------------------------------------------------
    # Copies rebuild through the generated __init__ from the current field
    # values instead of dataclasses.replace, whose per-call field walk and
    # keyword plumbing were the largest share of transition time.  Going
    # through __init__ rather than copying __dict__ keeps CPython's inline
    # attribute storage, so copies hash and read as fast as constructed
    # states; equality, hash, repr and pickle bytes equal replace()'s.
    def with_phase(self, phase: int) -> "GSUAgentState":
        """Copy of this state with a different clock phase."""
        if phase == self.phase:
            return self
        values = list(_field_values(self))
        values[_PHASE_INDEX] = phase
        return self.__class__(*values)

    def evolve(self, **changes) -> "GSUAgentState":
        """Copy of this state with the given field changes."""
        values = list(_field_values(self))
        for name, value in changes.items():
            index = _FIELD_INDEX.get(name)
            if index is None:
                raise TypeError(f"{type(self).__name__} has no field {name!r}")
            values[index] = value
        return self.__class__(*values)

    # ------------------------------------------------------------------
    @property
    def is_coin(self) -> bool:
        """Whether the agent belongs to the coin sub-population ``C``."""
        return self.role == Role.COIN

    @property
    def is_inhibitor(self) -> bool:
        """Whether the agent belongs to the inhibitor sub-population ``I``."""
        return self.role == Role.INHIBITOR

    @property
    def is_leader_candidate(self) -> bool:
        """Whether the agent belongs to the leader sub-population ``L``."""
        return self.role == Role.LEADER

    @property
    def is_uninitialised(self) -> bool:
        """Whether the agent has not yet received a working role."""
        return self.role in (Role.ZERO, Role.X)

    def is_junta(self, phi: int) -> bool:
        """Whether the agent is a clock leader (a coin at the top level)."""
        return self.role == Role.COIN and self.level >= phi

    def describe(self) -> str:
        """Compact human-readable rendering used in traces."""
        if self.role == Role.COIN:
            return f"C(phase={self.phase}, level={self.level}, {self.coin_mode.name})"
        if self.role == Role.INHIBITOR:
            return (
                f"I(phase={self.phase}, drag={self.drag}, "
                f"{self.inhibitor_mode.name}, {self.elevation.name})"
            )
        if self.role == Role.LEADER:
            return (
                f"L(phase={self.phase}, {self.leader_mode.name}, cnt={self.cnt}, "
                f"{self.flip.name}, void={self.void}, drag={self.drag})"
            )
        return f"{self.role.name}(phase={self.phase})"


#: Field name -> its position in declaration (= positional ``__init__``) order.
_FIELD_INDEX = {field.name: index for index, field in enumerate(fields(GSUAgentState))}
_field_values = attrgetter(*_FIELD_INDEX)
_PHASE_INDEX = _FIELD_INDEX["phase"]


# ----------------------------------------------------------------------
# Canonical constructors (keep irrelevant fields at defaults)
# ----------------------------------------------------------------------
def zero_state(phase: int = 0) -> GSUAgentState:
    """The common initial state ``0``."""
    return GSUAgentState(role=Role.ZERO, phase=phase)


def intermediate_state(phase: int = 0) -> GSUAgentState:
    """The intermediate symmetry-breaking state ``X``."""
    return GSUAgentState(role=Role.X, phase=phase)


def deactivated_state(phase: int = 0) -> GSUAgentState:
    """A deactivated agent ``D`` (only relays the clock)."""
    return GSUAgentState(role=Role.DEACTIVATED, phase=phase)


def coin_state(
    phase: int = 0, level: int = 0, mode: CoinMode = CoinMode.ADVANCING
) -> GSUAgentState:
    """A coin agent ``C⟨level, mode⟩``."""
    return GSUAgentState(role=Role.COIN, phase=phase, level=level, coin_mode=mode)


def inhibitor_state(
    phase: int = 0,
    drag: int = 0,
    mode: CoinMode = CoinMode.ADVANCING,
    elevation: Elevation = Elevation.LOW,
) -> GSUAgentState:
    """An inhibitor agent ``I⟨drag, mode, elevation⟩``."""
    return GSUAgentState(
        role=Role.INHIBITOR,
        phase=phase,
        drag=drag,
        inhibitor_mode=mode,
        elevation=elevation,
    )


def leader_state(
    phase: int = 0,
    mode: LeaderMode = LeaderMode.ACTIVE,
    cnt: int = 0,
    flip: Flip = Flip.NONE,
    void: bool = True,
    drag: int = 0,
) -> GSUAgentState:
    """A leader-candidate agent ``L⟨mode, cnt, flip, void, drag⟩``."""
    return GSUAgentState(
        role=Role.LEADER,
        phase=phase,
        leader_mode=mode,
        cnt=cnt,
        flip=flip,
        void=void,
        drag=drag,
    )


# ----------------------------------------------------------------------
# Predicates and orderings
# ----------------------------------------------------------------------
def is_alive_leader(state: GSUAgentState) -> bool:
    """Whether the agent is an *alive* candidate (``L⟨A⟩`` or ``L⟨P⟩``).

    Alive candidates are exactly the agents mapped to the leader output.
    """
    return state.role == Role.LEADER and state.leader_mode in (
        LeaderMode.ACTIVE,
        LeaderMode.PASSIVE,
    )


def is_active_leader(state: GSUAgentState) -> bool:
    """Whether the agent is an *active* candidate (``L⟨A⟩``)."""
    return state.role == Role.LEADER and state.leader_mode == LeaderMode.ACTIVE


_FLIP_RANK = {Flip.HEADS: 2, Flip.NONE: 1, Flip.TAILS: 0}


def seniority_key(state: GSUAgentState) -> tuple:
    """Total preorder used by the slow-backup rule (rule 11).

    Higher key = more senior = survives a direct encounter.  The order gives
    preference to higher ``drag``, then active over passive, then smaller
    ``cnt`` (further along the schedule), then heads over none over tails.
    """
    return (
        state.drag,
        1 if state.leader_mode == LeaderMode.ACTIVE else 0,
        -state.cnt,
        _FLIP_RANK.get(state.flip, 0),
    )
