"""Compiled transition-table intermediate representation (IR).

A :class:`TransitionTable` is the lowered, engine-agnostic form of a
:class:`~repro.engine.protocol.PopulationProtocol`: protocol states are
encoded as small consecutive integers (via a :class:`StateEncoder`), the
deterministic transition function is memoised into **one shared pair of
structures** —

* ``delta`` — a plain ``{(responder_id, initiator_id): (responder_id',
  initiator_id')}`` dictionary, the fastest lookup for scalar Python hot
  loops, and
* ``packed`` — a dense flat ``(capacity x capacity)`` ``int64`` array whose
  entry ``r * capacity + i`` holds ``(r' << 32) | i'`` (``-1`` when the pair
  has not been compiled yet), the gather target for vectorised NumPy paths
  and the lookup table consumed directly by *both* compiled kernels: the
  fast-batch pair kernel (:mod:`repro.engine._ckernel`) and the count-batch
  count kernel (:mod:`repro.engine._count_kernel`).  The fast-batch kernel
  treats a ``-1`` entry as a miss and hands the pair back to be compiled
  through :meth:`TransitionTable.apply`; the count kernel runs only on a
  complete table and never meets one —

and the output function is memoised into vectorised output maps (state id →
output-symbol id, plus the symbol interning tables), so configuration-level
engines can aggregate outputs with one ``bincount``.

The layout is a function of the protocol alone, one rule for every engine
and scenario:

1. a protocol with a reachable-state closure
   (:meth:`~repro.engine.protocol.PopulationProtocol.state_closure`, from
   :func:`repro.engine.closure.reachable_closure`: GSU19, GS18, lottery and
   the standalone junta) gets a table laid out over it, its LUT adopted;
2. otherwise its :meth:`canonical_states`, when declared, are registered
   as ids ``0..canonical_count-1`` and all ``canonical_count²`` of their
   pairs are compiled when the table is built (the epidemic, both
   majorities, slow);
3. anything else is discovered lazily, in the run's order: new states and
   pairs are compiled on first use, and the packed array doubles its side
   length when the encoder outgrows it.

Count space needs a complete table, 1 or 2 over closed states, and
refuses any other protocol; per-agent engines may discover states lazily.

The canonical prefix of 1 and 2 is one every fresh table of the protocol
rebuilds, so engine snapshots reference it by
:meth:`TransitionTable.canonical_digest` instead of storing it, and the
count-space engines, which sample by state id, draw the same trajectory
from a seed whatever ran on the table before.

Closure-compiled LUT
====================

A table laid out over a closure takes the BFS's states as ids ``0..K-1``
and its ``(K, K)`` transition array as the packed LUT, with capacity
``K``: every pair is compiled from the start.  The array is shared
read-only by every table of the calibration and never written: :meth:`_compile_pair` serves a pair present in the packed array
by filling ``delta`` from it, without evaluating the transition, and
growth past ``K`` (a state outside the closure) copies it into a private
writable array.  The layout changes no trajectory of a per-agent engine
(they draw agents, never state ids), so the same per-agent run on a
closure table and on a lazy one is identical.

Every engine obtains its table through
:meth:`PopulationProtocol.compile() <repro.engine.protocol.PopulationProtocol.compile>`,
which caches one table per protocol instance, so engines built on the same
protocol object share compiled transitions.  Sharing is sound because
transition functions are required to be pure and deterministic; per-run
quantities (state counts, ever-occupied tracking, interaction counters)
stay in the engines.  What sharing can change is the identifier layout of
lazily discovered states, which follows the table's compilation history;
only the per-agent engines, which never sample by identifier, run on such
tables.

A table, like the engines and protocols that use it, belongs to one thread:
the unit of parallelism is the process (:mod:`repro.engine.parallel`).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.state import StateEncoder
from repro.errors import TransitionError

__all__ = ["TransitionTable"]

#: Initial side length of the packed lookup array.
_INITIAL_CAPACITY = 64

#: ``floor(sqrt(2**31))`` — while the capacity is below this, flat indices
#: into the packed array fit in int32 and need no widening pass.
_INT32_SAFE_CAPACITY = 46_341


class TransitionTable:
    """Packed transition/output tables over encoded states.

    Parameters
    ----------
    protocol:
        The protocol to lower, laid out over its :meth:`state_closure`,
        else its :meth:`canonical_states`, else lazily (module docstring).
    """

    def __init__(self, protocol) -> None:
        self.protocol = protocol
        closure = protocol.state_closure()
        states = protocol.canonical_states() if closure is None else closure[0]
        self.encoder = StateEncoder(states)
        #: Number of leading ids laid out from the closure or the canonical
        #: states: a prefix every fresh table of this protocol reproduces,
        #: which snapshots reference by :meth:`canonical_digest` instead of
        #: storing its states.
        self.canonical_count = len(self.encoder)
        self._canonical_digest: Optional[str] = None
        #: Scalar transition memo shared by every engine on this protocol.
        self.delta: Dict[Tuple[int, int], Tuple[int, int]] = {}
        if closure is None:
            self._capacity = max(_INITIAL_CAPACITY, len(self.encoder))
            self._packed = np.full(self._capacity * self._capacity, -1, dtype=np.int64)
        else:
            # The closure's read-only (K, K) LUT is the packed array, shared
            # and never written: every pair is compiled from the start.
            self._capacity = len(self.encoder)
            self._packed = closure[1].reshape(-1)
        # Output maps: per-state symbol memo plus interned symbol ids for the
        # vectorised aggregation path.
        self._output_symbols: List[Optional[str]] = []
        self._symbols: List[str] = []
        self._symbol_ids: Dict[str, int] = {}
        self._output_ids = np.full(self._capacity, -1, dtype=np.int64)
        # Ids below this are known to have their output ids memoised.
        self._outputs_known = 0
        # Compiled state-property vectors (see repro.engine.views), keyed by
        # view object: array plus the number of state ids already evaluated.
        self._views: Dict[object, np.ndarray] = {}
        self._views_filled: Dict[object, int] = {}
        if closure is None:
            # Declared states start complete too: all k^2 pairs, compiled
            # now (a pair leading outside them registers its states).
            k = self.canonical_count
            for responder_id in range(k):
                for initiator_id in range(k):
                    self._compile_pair(responder_id, initiator_id)

    # ------------------------------------------------------------------
    # State registration and capacity
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Side length of the packed lookup array (>= number of states)."""
        return self._capacity

    @property
    def packed(self) -> np.ndarray:
        """The flat packed transition array (consumed by the C kernel)."""
        return self._packed

    def canonical_digest(self) -> str:
        """sha256 (hex) over the ``canonical_count`` prefix of the layout.

        Hashes each prefix state's ``repr``, one per line, so canonical
        states need a ``repr`` that is stable across processes (strings and
        dataclasses of plain fields are).  Computed on first use and cached:
        the prefix never changes once the table is built.
        """
        digest = self._canonical_digest
        if digest is None:
            prefix = self.encoder.states()[: self.canonical_count]
            text = "\n".join(repr(state) for state in prefix)
            digest = self._canonical_digest = hashlib.sha256(text.encode()).hexdigest()
        return digest

    @property
    def compiled_pairs(self) -> int:
        """Number of state pairs whose transition has been compiled."""
        return len(self.delta)

    def __len__(self) -> int:
        return len(self.encoder)

    def encode(self, state) -> int:
        """Register ``state`` (growing the packed arrays) and return its id."""
        sid = self.encoder.encode(state)
        if len(self.encoder) > self._capacity:
            self._grow(len(self.encoder))
        return sid

    def _grow(self, size: int) -> None:
        capacity = self._capacity
        new_capacity = max(size, 2 * capacity)
        grown = np.full(new_capacity * new_capacity, -1, dtype=np.int64)
        grown.reshape(new_capacity, new_capacity)[:capacity, :capacity] = (
            self._packed.reshape(capacity, capacity)
        )
        self._packed = grown
        grown_outputs = np.full(new_capacity, -1, dtype=np.int64)
        grown_outputs[:capacity] = self._output_ids
        self._output_ids = grown_outputs
        self._capacity = new_capacity

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _compile_pair(self, responder_id: int, initiator_id: int) -> Tuple[int, int]:
        """Evaluate one state pair and enter it into ``delta`` and ``packed``."""
        entry = int(self._packed[responder_id * self._capacity + initiator_id])
        if entry >= 0:
            # Compiled into the packed LUT already (an adopted closure
            # LUT): fill delta from it, never re-evaluate or write it.
            result = (entry >> 32, entry & 0xFFFFFFFF)
        else:
            responder = self.encoder.decode(responder_id)
            initiator = self.encoder.decode(initiator_id)
            try:
                new_responder, new_initiator = self.protocol.transition(
                    responder, initiator
                )
            except Exception as exc:  # pragma: no cover - defensive
                raise TransitionError(responder, initiator, str(exc)) from exc
            result = (self.encode(new_responder), self.encode(new_initiator))
            self._packed[responder_id * self._capacity + initiator_id] = (
                result[0] << 32
            ) | result[1]
        self.delta[(responder_id, initiator_id)] = result
        return result

    def apply(self, responder_id: int, initiator_id: int) -> Tuple[int, int]:
        """Compiled transition on one pair of state ids (compiling on miss)."""
        result = self.delta.get((responder_id, initiator_id))
        if result is not None:
            return result
        return self._compile_pair(responder_id, initiator_id)

    def apply_block(
        self, responder_ids: np.ndarray, initiator_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised transition on state-id arrays, compiling misses.

        Accepts int32 or int64 id arrays and returns two int64 arrays of new
        state ids.  While the capacity is small enough, int32 inputs avoid a
        widening pass on the hot path.
        """
        capacity = self._capacity
        if responder_ids.dtype == np.int32 and capacity < _INT32_SAFE_CAPACITY:
            flat = responder_ids * np.int32(capacity) + initiator_ids
        else:
            flat = responder_ids.astype(np.int64) * np.int64(capacity) + initiator_ids
        packed = self._packed.take(flat)
        if packed.size and int(packed.min()) < 0:
            for key in np.unique(flat[packed < 0]).tolist():
                self._compile_pair(*divmod(int(key), capacity))
            if self._capacity != capacity:
                capacity = self._capacity
                flat = responder_ids.astype(np.int64) * capacity + initiator_ids
            packed = self._packed.take(flat)
        return packed >> np.int64(32), packed & np.int64(0xFFFFFFFF)

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def output_of(self, sid: int) -> str:
        """Output symbol of the state registered under ``sid`` (memoised)."""
        symbols = self._output_symbols
        if sid >= len(symbols):
            symbols.extend([None] * (len(self.encoder) - len(symbols)))
        symbol = symbols[sid]
        if symbol is None:
            symbol = symbols[sid] = self.protocol.output(self.encoder.decode(sid))
            symbol_id = self._symbol_ids.get(symbol)
            if symbol_id is None:
                symbol_id = self._symbol_ids[symbol] = len(self._symbols)
                self._symbols.append(symbol)
            self._output_ids[sid] = symbol_id
        return symbol

    @property
    def symbols(self) -> List[str]:
        """Distinct output symbols seen so far, in interning order."""
        return list(self._symbols)

    def output_id_array(self, size: int) -> np.ndarray:
        """``state id -> output-symbol id`` map for ids ``< size``.

        Forces memoisation of any not-yet-evaluated outputs, so the returned
        array (a view into the table) has length ``size`` and no ``-1``
        entries.  A prefix known to be memoised is served unscanned.
        """
        if size > self._outputs_known:
            for sid in np.flatnonzero(self._output_ids[:size] < 0).tolist():
                self.output_of(sid)
            self._outputs_known = size
        return self._output_ids[:size]

    def aggregate_counts(self, counts: np.ndarray) -> Dict[str, int]:
        """Aggregate a dense state-count vector by output symbol.

        One gather plus one ``bincount``; every engine's
        :meth:`~repro.engine.base.BaseEngine.counts_by_output` is this over
        its count vector.
        """
        size = int(counts.shape[0])
        if size == 0:
            return {}
        output_ids = self.output_id_array(size)
        totals = np.bincount(output_ids, weights=counts, minlength=len(self._symbols))
        return {
            symbol: int(totals[symbol_id])
            for symbol_id, symbol in enumerate(self._symbols)
            if totals[symbol_id]
        }

    # ------------------------------------------------------------------
    # State-property views
    # ------------------------------------------------------------------
    def view_values(self, view) -> np.ndarray:
        """Compiled per-state property vector for ``view`` (lazily extended).

        Returns the dense ``int64`` vector ``values`` with ``values[sid] ==
        view.compile_state(decode(sid))`` for every registered state id, as
        a slice of a cached buffer.  Like the packed transition LUT, the
        vector is evaluated once per state id per table: the first call
        compiles every registered state (for closure-registered protocols
        that is the whole state space, at table-compile time), later calls
        only the states registered since.  The hot path — one dict lookup
        and an integer compare — makes per-check view access O(1) beyond
        the reduction itself.

        The returned slice aliases the cache: treat it as read-only.
        """
        size = len(self.encoder)
        array = self._views.get(view)
        filled = self._views_filled.get(view, 0)
        if array is None:
            array = self._views[view] = np.empty(
                max(size, _INITIAL_CAPACITY), dtype=np.int64
            )
        elif array.shape[0] < size:
            grown = np.empty(max(size, 2 * array.shape[0]), dtype=np.int64)
            grown[:filled] = array[:filled]
            array = self._views[view] = grown
        if filled < size:
            decode = self.encoder.decode
            compile_state = view.compile_state
            for sid in range(filled, size):
                array[sid] = compile_state(decode(sid))
            self._views_filled[view] = size
        return array[:size]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TransitionTable protocol={getattr(self.protocol, 'name', '?')!r} "
            f"states={len(self.encoder)} pairs={self.compiled_pairs} "
            f"capacity={self._capacity}>"
        )
