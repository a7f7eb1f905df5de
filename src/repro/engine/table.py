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
  count kernel (:mod:`repro.engine._count_kernel`).  The kernels treat a
  ``-1`` entry as a miss and roll their batch back so the Python side can
  compile the pair through :meth:`TransitionTable.apply` and re-enter —
  lazily discovered protocols therefore work unchanged on the hot paths —

and the output function is memoised into vectorised output maps (state id →
output-symbol id, plus the symbol interning tables), so configuration-level
engines can aggregate outputs with one ``bincount``.

Tables are *lazily extended*: new states and new state pairs are compiled on
first use, and the packed array doubles its side length when the encoder
outgrows it.  Protocols that declare :meth:`canonical_states` get those
states registered eagerly at compile time, which makes state-identifier
layout (and therefore the trajectories of the count-based engines, which
sample by identifier order) independent of per-run discovery order.  On a
pristine encoder those states are ids ``0..canonical_count-1``, a prefix
every fresh table of the protocol rebuilds, so engine snapshots reference
it by :meth:`TransitionTable.canonical_digest` instead of storing it.

Closure-compiled LUT
====================

A protocol whose canonical states come from the reachable-closure BFS
(:func:`repro.engine.closure.reachable_closure`, GSU19 at count-space
scale) also hands over the BFS's ``(K, K)`` transition array through
:meth:`~repro.engine.protocol.PopulationProtocol.canonical_transitions`.
When the table's ids ``0..K-1`` are exactly those states in order (the
encoder was empty before registration), the table adopts that array as its
packed LUT, with capacity ``K``: every pair is compiled from the start, so
the kernels never miss.  The array is shared read-only by every table of
the calibration and never written: :meth:`_compile_pair` serves a pair
present in the packed array by filling ``delta`` from it, without
evaluating the transition, and growth past ``K`` (a state outside the
closure) copies it into a private writable array.  A table over a
pre-populated encoder (``compile(encoder=...)``) compiles lazily.
Adoption changes no trajectory: a lazy table's misses roll their batch
back, RNG included, so the same run on either table is identical.

Every engine obtains its table through
:meth:`PopulationProtocol.compile() <repro.engine.protocol.PopulationProtocol.compile>`,
which caches one table per protocol instance — engines built on the same
protocol object therefore share compiled transitions.  Sharing is sound
because transition functions are required to be pure and deterministic;
per-run quantities (state counts, ever-occupied tracking, interaction
counters) stay in the engines.  What sharing can change is the identifier
layout of lazily discovered states, which follows the table's compilation
history.  The per-agent engines never let an identifier steer randomness,
so their runs are identical on a fresh or a warm table, and the sweep
scheduler runs a size's seeds on one protocol instance for them (its
table-sharing units, see :func:`repro.engine.dispatch.table_shareable`).
The count-space engines sample by identifier order: the scheduler builds
them a fresh protocol per run.

Thread safety
=============

Engines on one table may now live in different threads (the sweep
scheduler's ``backend="thread"`` path, :mod:`repro.engine.parallel`), so
every lazily *extending* operation — state registration, pair compilation,
packed-array growth, output memoisation, view-vector extension — runs under
one per-table lock, double-checked so the compiled hot paths (a ``delta``
dict hit, an already-interned state, a filled view vector) stay lock-free.
Readers that hand raw buffer addresses to the C kernels must snapshot the
packed array and its capacity *together* through :meth:`packed_view`:
growth swaps in a new array, and pairing a stale capacity with a fresh
array (or vice versa) would misindex.  A superseded packed array is never
mutated again, so a kernel call still reading one sees a consistent —
merely staler — table, takes a miss on any pair compiled since, and
re-enters against the current buffers; entries themselves are aligned
int64 stores written exactly once (``-1`` → final value), which every
platform this project targets performs atomically.  An adopted closure
LUT is never written at all.
"""

from __future__ import annotations

import hashlib
import threading
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
    """Packed, lazily extended transition/output tables over encoded states.

    Parameters
    ----------
    protocol:
        The protocol to lower.  Its :meth:`canonical_states`, when declared,
        are registered eagerly so identifier layout is deterministic.
    encoder:
        Optional pre-existing :class:`StateEncoder` to build on; a fresh one
        is created when omitted.
    """

    def __init__(self, protocol, encoder: Optional[StateEncoder] = None) -> None:
        self.protocol = protocol
        self.encoder = encoder if encoder is not None else StateEncoder()
        pristine = len(self.encoder) == 0
        canonical = protocol.canonical_states()
        lut = None
        #: Number of leading ids registered from ``canonical_states()`` on a
        #: pristine encoder (0 otherwise): a layout prefix every fresh table
        #: of this protocol reproduces, which snapshots reference by
        #: :meth:`canonical_digest` instead of storing its states.
        self.canonical_count = 0
        self._canonical_digest: Optional[str] = None
        if canonical is not None:
            for state in canonical:
                self.encoder.encode(state)
            if pristine:
                self.canonical_count = len(self.encoder)
                lut = protocol.canonical_transitions()
        #: Scalar transition memo shared by every engine on this protocol.
        self.delta: Dict[Tuple[int, int], Tuple[int, int]] = {}
        if lut is not None and lut.shape == (len(self.encoder),) * 2:
            # The closure's compiled LUT, shared read-only: ids 0..K-1 are
            # exactly the canonical states in order, so it is this table's
            # packed array already.  Growth past K copies it (see _grow).
            self._capacity = len(self.encoder)
            self._packed = lut.reshape(-1)
        else:
            self._capacity = max(_INITIAL_CAPACITY, len(self.encoder))
            self._packed = np.full(self._capacity * self._capacity, -1, dtype=np.int64)
        # Output maps: per-state symbol memo plus interned symbol ids for the
        # vectorised aggregation path.
        self._output_symbols: List[Optional[str]] = []
        self._symbols: List[str] = []
        self._symbol_ids: Dict[str, int] = {}
        self._output_ids = np.full(self._capacity, -1, dtype=np.int64)
        # Compiled state-property vectors (see repro.engine.views), keyed by
        # view object: array plus the number of state ids already evaluated.
        self._views: Dict[object, np.ndarray] = {}
        self._views_filled: Dict[object, int] = {}
        # Guards every lazily extending operation (see the module
        # docstring's thread-safety contract).  Reentrant because pair
        # compilation registers output states through encode() while
        # already holding it.
        self._lock = threading.RLock()

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

    def packed_view(self) -> Tuple[np.ndarray, int]:
        """``(packed array, capacity)`` as one consistent snapshot.

        Kernel callers must take both through this method (under the table
        lock) rather than reading :attr:`packed` and :attr:`capacity`
        separately: a concurrent :meth:`_grow` swaps in a larger array and
        updates the capacity together, and mixing the two generations would
        misindex every lookup.  Holding the returned array reference also
        keeps the buffer alive for the duration of a GIL-releasing C call
        even if the table grows mid-call — the stale array is immutable
        from then on, so the call simply sees fewer compiled pairs and
        reports them as misses.
        """
        with self._lock:
            return self._packed, self._capacity

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
        """Register ``state`` (growing the packed arrays) and return its id.

        Lock-free for already-registered states (the overwhelmingly common
        case once a run is warm); registration itself is serialised so two
        threads discovering the same state concurrently agree on its id.
        """
        sid = self.encoder.try_encode(state)
        if sid is not None:
            return sid
        with self._lock:
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
        """Evaluate one state pair and enter it into ``delta`` and ``packed``.

        Serialised per table; re-checks ``delta`` under the lock so two
        threads missing on the same pair compile it once (transitions are
        pure, so a duplicate evaluation would be harmless — the re-check
        just keeps the "compiled exactly once" accounting exact).
        """
        with self._lock:
            cached = self.delta.get((responder_id, initiator_id))
            if cached is not None:
                return cached
            entry = int(self._packed[responder_id * self._capacity + initiator_id])
            if entry >= 0:
                # Compiled into the packed LUT already (an adopted closure
                # LUT): fill delta from it, never re-evaluate or write it.
                result = (entry >> 32, entry & 0xFFFFFFFF)
                self.delta[(responder_id, initiator_id)] = result
                return result
            responder = self.encoder.decode(responder_id)
            initiator = self.encoder.decode(initiator_id)
            try:
                new_responder, new_initiator = self.protocol.transition(
                    responder, initiator
                )
            except Exception as exc:  # pragma: no cover - defensive
                raise TransitionError(responder, initiator, str(exc)) from exc
            new_responder_id = self.encoder.encode(new_responder)
            new_initiator_id = self.encoder.encode(new_initiator)
            if len(self.encoder) > self._capacity:
                self._grow(len(self.encoder))
            result = (new_responder_id, new_initiator_id)
            self._packed[responder_id * self._capacity + initiator_id] = (
                new_responder_id << 32
            ) | new_initiator_id
            # delta is published last: a lock-free apply() that sees the
            # entry may rely on every other structure being complete.
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
        table, capacity = self.packed_view()
        if responder_ids.dtype == np.int32 and capacity < _INT32_SAFE_CAPACITY:
            flat = responder_ids * np.int32(capacity) + initiator_ids
        else:
            flat = responder_ids.astype(np.int64) * np.int64(capacity) + initiator_ids
        packed = table.take(flat)
        if packed.size and int(packed.min()) < 0:
            for key in np.unique(flat[packed < 0]).tolist():
                self._compile_pair(*divmod(int(key), capacity))
            table, new_capacity = self.packed_view()
            if new_capacity != capacity:
                capacity = new_capacity
                flat = responder_ids.astype(np.int64) * capacity + initiator_ids
            packed = table.take(flat)
        return packed >> np.int64(32), packed & np.int64(0xFFFFFFFF)

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def output_of(self, sid: int) -> str:
        """Output symbol of the state registered under ``sid`` (memoised).

        A memoised symbol is served lock-free; first evaluation (and the
        symbol interning it may trigger) is serialised under the table lock.
        """
        symbols = self._output_symbols
        if sid < len(symbols):
            symbol = symbols[sid]
            if symbol is not None:
                return symbol
        with self._lock:
            symbols = self._output_symbols
            while len(symbols) < len(self.encoder):
                symbols.append(None)
            symbol = symbols[sid]
            if symbol is None:
                symbol = self.protocol.output(self.encoder.decode(sid))
                symbol_id = self._symbol_ids.get(symbol)
                if symbol_id is None:
                    symbol_id = len(self._symbols)
                    self._symbols.append(symbol)
                    self._symbol_ids[symbol] = symbol_id
                self._output_ids[sid] = symbol_id
                symbols[sid] = symbol
            return symbol

    @property
    def symbols(self) -> List[str]:
        """Distinct output symbols seen so far, in interning order."""
        return list(self._symbols)

    def output_id_array(self, size: int) -> np.ndarray:
        """``state id -> output-symbol id`` map for ids ``< size``.

        Forces memoisation of any not-yet-evaluated outputs, so the returned
        array (a view into the table) contains no ``-1`` entries below
        ``size``.
        """
        ids = self._output_ids
        for sid in np.flatnonzero(ids[:size] < 0).tolist():
            self.output_of(sid)
        return self._output_ids[:size]

    def aggregate_counts(self, counts: np.ndarray) -> Dict[str, int]:
        """Aggregate a dense state-count vector by output symbol.

        One gather plus one ``bincount`` — the vectorised counterpart of the
        per-state loop in :meth:`BaseEngine.counts_by_output`.
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

        A fully evaluated vector is served lock-free (the per-check hot
        path); extension — first evaluation or newly registered states — is
        serialised under the table lock.
        """
        size = len(self.encoder)
        array = self._views.get(view)
        if array is not None and self._views_filled.get(view, 0) >= size:
            return array[:size]
        with self._lock:
            size = len(self.encoder)
            array = self._views.get(view)
            filled = self._views_filled.get(view, 0)
            if array is None:
                array = np.empty(max(size, _INITIAL_CAPACITY), dtype=np.int64)
                self._views[view] = array
            elif array.shape[0] < size:
                grown = np.empty(max(size, 2 * array.shape[0]), dtype=np.int64)
                grown[:filled] = array[:filled]
                array = grown
                self._views[view] = grown
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
