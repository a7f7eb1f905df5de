"""Compiled state-property views: observation as vector reductions.

The observation layer (convergence predicates, recorders, the GSU19
monitor) asks questions about the *current configuration* — "how many
agents satisfy this predicate?", "what is the largest drag among leaders?",
"how many agents per role?".  Answering them by decoding every occupied
state and running a Python predicate per check is what capped observed runs
at small populations: the question is re-evaluated per state *per check*
even though its answer per state never changes.

A :class:`StateView` fixes the altitude: a state property (predicate,
integer metric, or categorical label) is evaluated **once per state id**
and cached as a dense NumPy vector on the protocol's shared
:class:`~repro.engine.table.TransitionTable` (the same lazily-extended
lifecycle as the table's packed transition LUT and output maps).  Every
observation then becomes an ``O(occupied)`` vector reduction between the
engine's native count vector (:meth:`~repro.engine.base.BaseEngine.count_vector`
— no dict snapshot, no decode) and the compiled property vector:

    >>> from repro.engine.views import PredicateView
    >>> from repro.engine.count_batch import CountBatchEngine
    >>> from repro.protocols.epidemic import OneWayEpidemic
    >>> informed = PredicateView("informed", lambda s: s == "informed")
    >>> engine = CountBatchEngine(OneWayEpidemic(), 1_000, rng=0)
    >>> informed.count(engine)      # one int64 dot product
    1
    >>> engine.run(4_000)
    >>> informed.count(engine) > 1
    True

Three view kinds cover the observation vocabulary:

* :class:`PredicateView` — ``state -> bool``; reductions
  :meth:`~PredicateView.count` (agents satisfying it) and
  :meth:`~PredicateView.holds_for_all` (no occupied violating state).
* :class:`ValueView` — ``state -> int | None`` (``None`` marks states the
  metric does not apply to); reductions :meth:`~ValueView.max`,
  :meth:`~ValueView.min` over occupied valid states and
  :meth:`~ValueView.census` (``{value: agent count}``).
* :class:`CategoricalView` — ``state -> hashable label``, interned into
  small category codes; reduction :meth:`~CategoricalView.census`
  (``{category: agent count}``) via one ``bincount``.

Contract: the viewed function must be **pure and total** over the
protocol's states — it is evaluated exactly once per state id per table,
and the cached value is reused for the lifetime of the protocol instance.
Views are cheap value objects; module-level view constants (see
:mod:`repro.core.monitor`) are the intended idiom, shared across every
engine and protocol instance alike — each table keeps its own compiled
vector per view, so sharing a view across protocols is safe.

Convergence predicates and recorders *declare* the views they evaluate
(their ``views`` attribute); the :class:`~repro.engine.simulation.Simulation`
driver warms the declared views against the engine's table up front, so for
closure-registered protocols the whole property vector is compiled at
table-compile time and the per-check cost is purely the reduction.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.types import State

__all__ = [
    "StateView",
    "PredicateView",
    "ValueView",
    "CategoricalView",
    "VALUE_MISSING",
]

#: Sentinel stored by :class:`ValueView` for states its metric does not
#: apply to (the view function returned ``None``).  Every reduction masks
#: it out, so any representable int64 metric value remains usable.
VALUE_MISSING = np.iinfo(np.int64).min


class StateView:
    """A named per-state property, compiled once per state id.

    Subclasses define :meth:`compile_state` (state → stored ``int64``
    scalar); the compiled vectors themselves live on each protocol's
    :class:`~repro.engine.table.TransitionTable` (see
    :meth:`~repro.engine.table.TransitionTable.view_values`), keyed by the
    view, so one view instance serves any number of protocols and engines.
    Two views of the same kind over the same function compare equal (the
    compiled vector is a pure function of both), so wrappers that build a
    view per instance — ``AllAgentsSatisfy``, ad-hoc per-run predicates —
    share one cached vector per table as long as they wrap the *same*
    function object; a fresh lambda per construction still compiles its
    own vector, so prefer module-level views or named functions.
    """

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[State], object]) -> None:
        self.name = name
        self._fn = fn

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._fn == other._fn

    def __hash__(self) -> int:
        return hash((type(self), self._fn))

    def __call__(self, state: State) -> object:
        """The underlying Python property (the decode-based counterpart)."""
        return self._fn(state)

    def compile_state(self, state: State) -> int:  # pragma: no cover - interface
        """Lower one state's property to the stored ``int64`` scalar."""
        raise NotImplementedError

    def _aligned(self, engine) -> Tuple[np.ndarray, np.ndarray]:
        """``(counts, values)`` aligned by state id for ``engine``'s configuration.

        ``counts`` is the engine's native dense count vector (length
        ``len(encoder)``, possibly the engine's own buffer — read-only);
        ``values`` the compiled property vector sliced to the same length.
        """
        counts = engine.count_vector()
        values = engine.table.view_values(self)
        return counts, values[: counts.shape[0]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class PredicateView(StateView):
    """A boolean state property compiled to a 0/1 mask."""

    __slots__ = ()

    def compile_state(self, state: State) -> int:
        return 1 if self._fn(state) else 0

    def count(self, engine) -> int:
        """Number of agents whose state satisfies the predicate."""
        counts, mask = self._aligned(engine)
        return int(counts @ mask)

    def holds_for_all(self, engine) -> bool:
        """Whether every occupied state satisfies the predicate."""
        counts, mask = self._aligned(engine)
        return int(counts @ (1 - mask)) == 0


class ValueView(StateView):
    """An integer state metric; ``None`` marks states it does not apply to."""

    __slots__ = ()

    def compile_state(self, state: State) -> int:
        value = self._fn(state)
        if value is None:
            return VALUE_MISSING
        return int(value)

    def _valid(self, engine) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, counts)`` restricted to occupied states with a value."""
        counts, values = self._aligned(engine)
        valid = (counts > 0) & (values != VALUE_MISSING)
        return values[valid], counts[valid]

    def max(self, engine, default: Optional[int] = None) -> Optional[int]:
        """Largest value over occupied applicable states (``default`` if none)."""
        values, _ = self._valid(engine)
        if values.shape[0] == 0:
            return default
        return int(values.max())

    def min(self, engine, default: Optional[int] = None) -> Optional[int]:
        """Smallest value over occupied applicable states (``default`` if none)."""
        values, _ = self._valid(engine)
        if values.shape[0] == 0:
            return default
        return int(values.min())

    def census(self, engine) -> Dict[int, int]:
        """``{value: agent count}`` over occupied applicable states.

        Distinct states sharing a value accumulate; the scalar walk below
        visits the occupied-valid set only, so its cost follows the
        occupied frontier.
        """
        values, counts = self._valid(engine)
        census: Dict[int, int] = {}
        for value, count in zip(values.tolist(), counts.tolist()):
            census[value] = census.get(value, 0) + count
        return census


class CategoricalView(StateView):
    """A hashable state label interned into small category codes.

    ``categories`` pre-interns labels in a declared order (useful when the
    census consumer wants a stable ordering, e.g. an enum's members); any
    label produced later is appended on first sight.  The interning tables
    live on the view and are shared by every table holding its compiled
    codes, so codes agree across protocol instances.  Unlike the stateless
    view kinds, categorical views therefore compare by identity: a cached
    code vector is only meaningful against the interning tables of the
    instance that compiled it.
    """

    __slots__ = ("_categories", "_category_ids")

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        name: str,
        fn: Callable[[State], Hashable],
        categories: Iterable[Hashable] = (),
    ) -> None:
        super().__init__(name, fn)
        self._categories: List[Hashable] = []
        self._category_ids: Dict[Hashable, int] = {}
        for category in categories:
            self._intern(category)

    def _intern(self, category: Hashable) -> int:
        code = self._category_ids.get(category)
        if code is None:
            code = self._category_ids[category] = len(self._categories)
            self._categories.append(category)
        return code

    @property
    def categories(self) -> List[Hashable]:
        """Known categories, in interning order."""
        return list(self._categories)

    def compile_state(self, state: State) -> int:
        return self._intern(self._fn(state))

    def census(self, engine) -> Dict[Hashable, int]:
        """``{category: agent count}`` for categories with at least one agent.

        One ``bincount`` over the compiled codes weighted by the count
        vector (float64 accumulation is exact far beyond any population
        size this library simulates).
        """
        counts, codes = self._aligned(engine)
        totals = np.bincount(
            codes, weights=counts, minlength=len(self._categories)
        )
        return {
            category: int(totals[code])
            for code, category in enumerate(self._categories)
            if totals[code]
        }
