"""Abstract definition of a population protocol.

A population protocol is described by

* a (possibly infinite, lazily discovered) set of agent states,
* an initial configuration — here produced by :meth:`PopulationProtocol.initial_state`
  (all agents identical, as in the paper) or
  :meth:`PopulationProtocol.initial_configuration` for heterogeneous starts,
* a deterministic transition function ``δ(responder, initiator) →
  (responder', initiator')``,
* an output function mapping each state to an output symbol (for leader
  election: ``"L"`` or ``"F"``).

The ordering convention follows the paper: *"each interaction refers to an
ordered pair of agents (responder, initiator)"* and the transition rules are
written ``responder + initiator → responder' + initiator'`` — the responder
is the agent listed first and is typically the one updated.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import groupby
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.types import State, TransitionResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    import numpy as np

    from repro.engine.table import TransitionTable

__all__ = [
    "PopulationProtocol",
    "ProtocolSpec",
    "LEADER_OUTPUT",
    "FOLLOWER_OUTPUT",
    "initial_count_items",
]

#: Conventional output symbol for "this agent currently maps to the leader".
LEADER_OUTPUT = "L"
#: Conventional output symbol for "this agent currently maps to a follower".
FOLLOWER_OUTPUT = "F"

#: Population size from which falling back to ``initial_configuration`` is an
#: error rather than a slow path: the fallback walks an O(n) sequence, which
#: at 10^7+ agents means multi-GB transient allocations inside engines whose
#: selling point is O(k) memory.  Protocols must declare ``initial_counts``
#: to run at this scale.
_COUNTS_REQUIRED_MIN_N = 10**7


class PopulationProtocol(abc.ABC):
    """Base class for population protocols.

    Sub-classes must implement :meth:`initial_state`, :meth:`transition` and
    :meth:`output`.  Transition functions **must be deterministic**: all
    randomness in the model comes from the scheduler.  Engines rely on this to
    memoise transitions.
    """

    #: Human readable protocol name (used in reports and experiment tables).
    name: str = "population-protocol"

    # ------------------------------------------------------------------
    # Required interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def initial_state(self, n: int) -> State:
        """Return the common initial state for a population of size ``n``.

        Protocols that need a heterogeneous start should override
        :meth:`initial_configuration` instead and may raise
        :class:`NotImplementedError` here.
        """

    @abc.abstractmethod
    def transition(self, responder: State, initiator: State) -> TransitionResult:
        """Apply one interaction and return ``(responder', initiator')``.

        The function must be pure and deterministic.
        """

    @abc.abstractmethod
    def output(self, state: State) -> str:
        """Map a state to its output symbol (e.g. ``"L"``/``"F"``)."""

    # ------------------------------------------------------------------
    # Optional interface
    # ------------------------------------------------------------------
    def initial_configuration(self, n: int) -> Sequence[State]:
        """Return the full initial configuration (length ``n``).

        The default replicates :meth:`initial_state` ``n`` times, matching the
        paper's assumption that *"all n agents start in the same initial
        state"*.
        """
        state = self.initial_state(n)
        return [state] * n

    def is_leader(self, state: State) -> bool:
        """Whether ``state`` maps to the leader output."""
        return self.output(state) == LEADER_OUTPUT

    def state_closure(self) -> Optional[Tuple[Sequence[State], "np.ndarray"]]:
        """Optionally the protocol's state space: its reachable-state
        closure and the closure's transition table.

        ``(states, lut)``: every state reachable from the initial
        configuration, in a fixed order, and the read-only ``(K, K)``
        ``int64`` array whose entry ``[r, i]`` is ``(r' << 32) | i'`` when
        ``transition(states[r], states[i]) == (states[r'], states[i'])``
        (the layout :func:`~repro.engine.closure.reachable_closure`
        returns).  :meth:`compile` lays every table of the protocol out
        over it and adopts ``lut`` as its packed LUT, so the table never
        misses; the array is shared, never written.  This is the one way a
        protocol declares its state space; ``None`` (the default) means
        "discover lazily", which only the per-agent engines accept.
        """
        return None

    def initial_counts(self, n: int) -> Optional[Dict[State, int]]:
        """Optional ``{state: count}`` form of the initial configuration.

        The configuration-level engine (``CountBatchEngine``, through
        :func:`initial_count_items`) prefers this hook because it needs
        ``O(k)`` memory instead of the ``O(n)`` list built by
        :meth:`initial_configuration` — the difference between fitting
        ``n = 10^8`` in a few kilobytes and allocating gigabytes.  The
        default ``None`` makes that engine fall back to
        :meth:`initial_configuration` (refused outright at ``n >= 10^7``,
        where the fallback would silently allocate gigabytes).  Counts must
        be non-negative and sum to ``n``.  Declaring this hook is half of
        being *count-capable* (the other half is a
        :meth:`state_closure`), which is what makes ``engine="auto"``
        consider the configuration-space engine at large ``n``.
        """
        return None

    def compile(self) -> "TransitionTable":
        """Lower this protocol to a packed :class:`TransitionTable` IR.

        The table's layout is a function of the protocol alone: over
        :meth:`state_closure` when one is declared (its LUT adopted, every
        pair compiled), else lazily, in discovery order.  The table is
        cached on the protocol instance, so every engine built on the same
        protocol object shares one table (scalar ``delta`` dict, packed LUT
        and output maps) — the basis of the engines' shared-transition
        guarantee and a warm start for repeated runs.
        """
        table = self.__dict__.get("_compiled_table")
        if table is None:
            from repro.engine.table import TransitionTable

            table = self._compiled_table = TransitionTable(self)
        return table

    def describe_state(self, state: State) -> str:
        """Human readable rendering of a state (for traces and debugging)."""
        return repr(state)

    def fingerprint(self) -> Dict[str, object]:
        """Content identity of this protocol for the experiment store.

        Returns a JSON-serialisable dictionary that determines the
        protocol's behaviour: the concrete class plus every public
        constructor-derived attribute (parameter objects render through
        their — deterministic — dataclass ``repr``).  Two protocol
        instances with equal fingerprints must produce identical dynamics;
        the on-disk store (:mod:`repro.experiments.store`) hashes this,
        together with ``(n, seed, engine, convergence, budget)``, into the
        cell key under which completed runs are cached.

        Memory addresses inside ``repr`` output (ad-hoc
        :class:`ProtocolSpec` callables, for example) are stripped so the
        fingerprint is stable across processes; protocols whose behaviour
        is carried by such callables should set a distinctive ``name`` —
        or override this method — since the callable's *code* is not part
        of the hash.
        """
        import re

        from repro.types import plain_data

        def stable_repr(value: object) -> str:
            return re.sub(r" at 0x[0-9a-fA-F]+", "", repr(value))

        cls = type(self)
        return {
            "class": f"{cls.__module__}.{cls.__qualname__}",
            "name": self.name,
            "params": {
                key: plain_data(value, fallback=stable_repr)
                for key, value in sorted(vars(self).items())
                if not key.startswith("_")
            },
        }

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def validate_configuration(self, configuration: Sequence[State], n: int) -> None:
        """Raise :class:`ProtocolError` if ``configuration`` is unusable."""
        if len(configuration) != n:
            raise ProtocolError(
                f"initial configuration of protocol {self.name!r} has length "
                f"{len(configuration)}, expected n={n}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


def initial_count_items(protocol: PopulationProtocol, n: int) -> List[tuple]:
    """``(state, count)`` pairs of the initial configuration, in order.

    Prefers the protocol's ``O(k)``-memory :meth:`initial_counts` hook and
    falls back to run-length encoding :meth:`initial_configuration`.  The
    fallback *streams* the configuration through :func:`itertools.groupby`
    — no intermediate copy is built here, and a protocol whose
    ``initial_configuration`` returns a lazy iterable is consumed in O(k)
    memory (``k`` runs of equal states).  At ``n >= 10^7`` the fallback is
    refused outright with a :class:`ProtocolError` naming the fix (declare
    ``initial_counts``): the stock implementations return O(n) lists, and
    whether a particular override would stream lazily cannot be known
    without *invoking* it — at which point a list-returning protocol has
    already allocated the gigabytes this guard exists to prevent.
    """
    counts = protocol.initial_counts(n)
    if counts is not None:
        items = list(counts.items())
        total = sum(count for _, count in items)
        if total != n or any(count < 0 for _, count in items):
            raise ProtocolError(
                f"initial_counts of protocol {protocol.name!r} sums to {total} "
                f"with population size {n} (counts must be non-negative and "
                "sum to n)"
            )
        return [(state, int(count)) for state, count in items if count]
    if n >= _COUNTS_REQUIRED_MIN_N:
        raise ProtocolError(
            f"protocol {protocol.name!r} declares no initial_counts; the "
            f"initial_configuration fallback is refused at n={n} (stock "
            "implementations materialise an O(n) list, and checking for a "
            "lazy override would already invoke it) — implement "
            "initial_counts (the O(k) {state: count} form of the initial "
            "configuration) to simulate populations of 10^7 and beyond"
        )
    configuration = protocol.initial_configuration(n)
    if hasattr(configuration, "__len__"):
        # Sized configurations keep the protocol's validate_configuration
        # hook (subclasses may enforce extra invariants there); lazy
        # iterables skip it — their length is validated from the stream.
        protocol.validate_configuration(configuration, n)
    items = [
        (state, sum(1 for _ in run)) for state, run in groupby(configuration)
    ]
    total = sum(count for _, count in items)
    if total != n:
        raise ProtocolError(
            f"initial configuration of protocol {protocol.name!r} has length "
            f"{total}, expected n={n}"
        )
    return items


@dataclass
class ProtocolSpec(PopulationProtocol):
    """A population protocol assembled from plain callables.

    This is a convenience wrapper used in tests, examples and quick
    explorations, avoiding a class definition for tiny protocols::

        two_state = ProtocolSpec(
            name="slow-election",
            initial="L",
            rules=lambda r, i: ("F", "L") if r == "L" and i == "L" else (r, i),
            outputs=lambda s: "L" if s == "L" else "F",
        )
    """

    name: str = "adhoc-protocol"
    initial: State = None
    rules: Callable[[State, State], TransitionResult] = None  # type: ignore[assignment]
    outputs: Callable[[State], str] = None  # type: ignore[assignment]
    states: Optional[List[State]] = None
    configuration_factory: Optional[Callable[[int], Sequence[State]]] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rules is None:
            raise ProtocolError("ProtocolSpec requires a `rules` callable")
        if self.outputs is None:
            raise ProtocolError("ProtocolSpec requires an `outputs` callable")

    def initial_state(self, n: int) -> State:
        if self.configuration_factory is not None:
            raise ProtocolError(
                "this ProtocolSpec uses a configuration factory; call "
                "initial_configuration instead"
            )
        return self.initial

    def initial_configuration(self, n: int) -> Sequence[State]:
        if self.configuration_factory is not None:
            configuration = list(self.configuration_factory(n))
            self.validate_configuration(configuration, n)
            return configuration
        return super().initial_configuration(n)

    def transition(self, responder: State, initiator: State) -> TransitionResult:
        return self.rules(responder, initiator)

    def output(self, state: State) -> str:
        return self.outputs(state)

    def state_closure(self) -> Optional[Tuple[Sequence[State], "np.ndarray"]]:
        """The closure of the declared ``states`` (``None``: lazy), computed
        once per instance: a spec's rules are its own, so no other spec
        shares it.  An unbounded state space fails here with the BFS's
        :class:`ProtocolError`."""
        if self.states is None:
            return None
        closure = self.__dict__.get("_closure")
        if closure is None:
            from repro.engine.closure import reachable_closure

            states, lut = reachable_closure(self.transition, self.states)
            closure = self._closure = (tuple(states), lut)
        return closure
