"""Bidirectional mapping between protocol states and small integers.

Engines never manipulate protocol state objects in their hot loops; instead
each distinct state encountered is assigned a small integer identifier the
first time it is seen.  Because population protocols of interest use at most
a few hundred distinct states, the mapping stays tiny and transition
memoisation on identifier pairs is effective.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.types import State

__all__ = ["StateEncoder"]


class StateEncoder:
    """Assigns consecutive integer identifiers to hashable states.

    The encoder is append-only: identifiers are never reused or re-assigned,
    so an identifier observed at any point in a run remains valid for the
    rest of the run.
    """

    __slots__ = ("_to_id", "_to_state")

    def __init__(self, states: Optional[Iterable[State]] = None) -> None:
        self._to_id: Dict[State, int] = {}
        self._to_state: List[State] = []
        if states is not None:
            for state in states:
                self.encode(state)

    # ------------------------------------------------------------------
    def encode(self, state: State) -> int:
        """Return the identifier for ``state``, registering it if new.

        Registration appends to the decode list *before* publishing the id
        in the lookup dict: writers are serialised by the owning
        :class:`~repro.engine.table.TransitionTable`'s lock, but lock-free
        readers (``try_encode`` on a warm table) may observe the dict entry
        at any point, and this order guarantees any id they see already
        decodes.
        """
        sid = self._to_id.get(state)
        if sid is None:
            sid = len(self._to_state)
            self._to_state.append(state)
            self._to_id[state] = sid
        return sid

    def decode(self, sid: int) -> State:
        """Return the state registered under identifier ``sid``."""
        return self._to_state[sid]

    def try_encode(self, state: State) -> Optional[int]:
        """Return the identifier for ``state`` if already registered."""
        return self._to_id.get(state)

    def known(self, state: State) -> bool:
        """Whether ``state`` has been registered."""
        return state in self._to_id

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._to_state)

    def __iter__(self) -> Iterator[State]:
        return iter(self._to_state)

    def __contains__(self, state: State) -> bool:
        return state in self._to_id

    def items(self):
        """Iterate over ``(state, identifier)`` pairs in registration order."""
        return self._to_id.items()

    def states(self, start: int = 0) -> List[State]:
        """Registered states with ids ``>= start`` (default: all), in
        registration order."""
        return self._to_state[start:]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StateEncoder {len(self)} states>"
