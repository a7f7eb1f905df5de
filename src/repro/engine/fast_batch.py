"""Exact collision-aware batched engine.

:class:`FastBatchEngine` simulates the sequential population-protocol model
*exactly* while amortising the Python interpreter overhead over thousands of
interactions.  Blocks of pre-sampled ordered agent pairs are applied through
one of two interchangeable hot paths:

* the **C kernel** (:mod:`repro.engine._ckernel`), used whenever a system C
  compiler is available: the block is executed in strict sequential order
  against the packed transition lookup table at a few nanoseconds per
  interaction — no collision analysis needed at all.  On the complete
  graph (:class:`~repro.engine.scheduler.PairSampler`, ``n < 2**32``) one
  kernel call also draws every block itself, from the engine's own bit
  generator and word for word as ``pair_block`` would, so a whole
  ``run(count)`` is one C call plus one per lookup-table miss; at
  ``n >= 2**32``, and for explicit blocks, Python fills the kernel's pair
  buffers (through ``pair_block`` when it draws them);
* the **NumPy wave schedule** documented below, the portable fallback that
  needs nothing beyond NumPy.

Both paths consume identical randomness and produce bit-for-bit identical
trajectories, so everything below about exactness applies to either.

The wave schedule rests on the idea that a pre-sampled block of ordered
agent pairs can be split into runs in which no agent appears twice; within
such a *collision-free segment* every interaction reads states that no other
interaction in the segment writes, so the segment can be applied in bulk with
vectorised NumPy operations without changing the outcome of any single
interaction.

Per block the engine

1. pre-samples :data:`~repro.engine.scheduler.PAIR_CHUNK` ordered pairs of
   distinct agents with
   :meth:`repro.engine.scheduler.PairSampler.pair_block` (exactly the call the
   sequential engine makes),
2. computes, for every interaction, the most recent earlier interaction in
   the block that touches one of its two agents (one integer sort over the
   interleaved agent indices — see :func:`conflict_columns`),
3. schedules the block as *dependency waves* (:func:`wave_depths`): wave 0
   holds every interaction neither of whose agents was touched earlier in
   the block, wave ``k`` the interactions whose deepest predecessor sits in
   wave ``k-1``.  Interactions of equal depth never share an agent, and all
   of an interaction's predecessors lie in strictly earlier waves, so
   applying the waves in order — every sampled pair exactly once, none
   dropped or duplicated — reproduces the sequential order exactly, and
4. applies each wave in bulk: agent states are gathered into arrays, the
   transition is evaluated through the protocol's shared compiled
   :class:`~repro.engine.table.TransitionTable` (its packed dense lookup
   array, filled lazily on first use of each state pair), and the changed
   states are scattered back.

Every path keeps the engine's ledger (:class:`~repro.engine.base.BaseEngine`'s
count vector and seen mask) live: each agent whose state a transition
changes moves one count from its old state id to its new one and marks the
new one seen (in the C kernel, per segment on the wave schedule, once per
block in the scalar fallback), so an inspection reads ``O(k)`` counts and
never recounts the ``n`` agents.

Blocks whose dependency chains are deeper than :data:`_MAX_WAVES` (tiny
populations, where an agent recurs hundreds of times per block) are applied
through a scalar loop equivalent to the sequential engine's — same results,
no batching gain, which is fine because the auto-dispatcher never picks this
engine there.

Exactness: the sequence of sampled pairs is i.i.d. uniform over ordered
pairs of distinct agents, identical in distribution to the sequential
engine's; applying a collision-free segment in bulk commutes with applying
it pair by pair because the segment touches each agent at most once.  In
fact the engine draws its randomness exactly as the ``pair_block`` calls of
:class:`~repro.engine.engine.SequentialEngine` do, in chunks of the same
size (both engines import :data:`~repro.engine.scheduler.PAIR_CHUNK`) —
through those very calls on the NumPy path and at ``n >= 2**32``,
through the C kernel's draw of the same words from the same bit generator
otherwise — so for an identical seed and an identical driver call pattern
the two engines produce bit-for-bit identical trajectories (a property the
test suite pins down, along with the kernel draw against ``pair_block``).

On the NumPy path the expected collision-free segment length grows like
``Θ(sqrt(n))`` (birthday problem over ``2k`` sampled indices), so the
per-interaction Python overhead vanishes as the population grows — that
path overtakes the sequential engine around ``n ~ 5 * 10^4``; the C kernel
wins at every size.  Memory: ``O(n)`` for the per-agent state array plus
``O(k^2)`` for the lookup tables, where ``k`` is the number of distinct
states discovered so far.
"""

from __future__ import annotations

import ctypes
from itertools import groupby
from typing import List, Optional, Tuple

import numpy as np

from repro.engine._ckernel import FastBlock, load_kernel
from repro.engine.base import BaseEngine
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike, make_rng
from repro.engine.scheduler import PAIR_CHUNK, PairSampler
from repro.errors import CheckpointError, ConfigurationError

__all__ = [
    "FastBatchEngine",
    "conflict_columns",
    "wave_depths",
]

#: Fixpoint iteration cap for :func:`wave_depths`; blocks whose dependency
#: chains are deeper than this (tiny populations) are applied scalar instead.
_MAX_WAVES = 48

_TAG_CACHE: dict = {}


def _interaction_role_tags(m: int) -> np.ndarray:
    """``(interaction << 1) | role`` tags matching ``concat(responders, initiators)``.

    Cached per block size (callers must not mutate the result); the cache
    stays tiny because engines use one fixed chunk size plus per-run
    remainders.
    """
    tags = _TAG_CACHE.get(m)
    if tags is None:
        interaction = np.arange(m, dtype=np.int64) << np.int64(1)
        tags = np.concatenate((interaction, interaction | np.int64(1)))
        if len(_TAG_CACHE) > 16:
            _TAG_CACHE.clear()
        _TAG_CACHE[m] = tags
    return tags


def conflict_columns(
    responders: np.ndarray, initiators: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-interaction index of the latest earlier interaction sharing an agent.

    Returns ``(conflict_r, conflict_i)``: for interaction ``t``,
    ``conflict_r[t]`` is the index of the most recent interaction ``< t``
    that touches ``responders[t]`` (``-1`` if none), and ``conflict_i[t]``
    likewise for ``initiators[t]``.  Because a previous occurrence is
    strictly earlier and the two agents of a pair are distinct, both columns
    are ``< t`` everywhere.
    """
    m = int(responders.shape[0])
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Pack every occurrence as (agent << shift) | (interaction << 1) | role
    # and sort the packed integers: occurrences of the same agent become
    # neighbours, ordered by interaction index (the low bits), so each
    # sorted neighbour pair with equal agents is a (previous, next)
    # occurrence pair.  One value sort of packed keys is ~10x faster than a
    # stable argsort of the raw agent array.  The keys are assembled with
    # out= into one buffer (no concatenate temporary), and the low bits are
    # only extracted for the duplicated occurrences — a few percent of a
    # block for large populations.
    shift = (2 * m - 1).bit_length()
    keys = np.empty(2 * m, dtype=np.int64)
    np.left_shift(responders, np.int64(shift), out=keys[:m])
    np.left_shift(initiators, np.int64(shift), out=keys[m:])
    keys |= _interaction_role_tags(m)
    keys.sort()
    agents = keys >> np.int64(shift)
    same = np.flatnonzero(agents[1:] == agents[:-1])
    conflict_r = np.full(m, -1, dtype=np.int64)
    conflict_i = np.full(m, -1, dtype=np.int64)
    mask = np.int64((1 << shift) - 1)
    successor = keys[same + 1] & mask
    predecessor_t = (keys[same] & mask) >> np.int64(1)
    successor_t = successor >> np.int64(1)
    is_responder = (successor & np.int64(1)) == 0
    conflict_r[successor_t[is_responder]] = predecessor_t[is_responder]
    conflict_i[successor_t[~is_responder]] = predecessor_t[~is_responder]
    return conflict_r, conflict_i


def wave_depths(
    conflict_r: np.ndarray, conflict_i: np.ndarray, max_waves: int = _MAX_WAVES
) -> Optional[np.ndarray]:
    """Dependency depth of every interaction of a block, or ``None`` if > cap.

    ``depth[t]`` is the length of the longest chain of agent-sharing
    interactions ending in ``t``: ``0`` when neither of ``t``'s agents was
    touched before, else ``1 + max(depth[conflict])`` over the (at most two)
    immediate predecessors.  Two interactions of equal depth never share an
    agent (one would be the other's predecessor), and every state an
    interaction reads was last written by a strictly shallower interaction —
    so applying depth classes in increasing order, each class in bulk, is
    exactly equivalent to applying the block sequentially.

    The recurrence is evaluated as a vectorised monotone fixpoint; after
    ``k`` sweeps all depths ``<= k`` are final, so it converges in
    ``max depth + 1`` sweeps.  The sweeps only iterate the *conflicted*
    subset (interactions with at least one predecessor — everything else
    has depth 0 by definition); for large populations that subset is a few
    percent of the block, which is what makes this the engine's hot-path
    schedule.  Returns ``None`` when the cap is exceeded (dependency chains
    deeper than ``max_waves`` arise only for populations far too small to
    benefit from batching).
    """
    depth = np.zeros(conflict_r.shape[0], dtype=np.int64)
    conflicted = np.flatnonzero((conflict_r >= 0) | (conflict_i >= 0))
    if conflicted.size == 0:
        return depth
    sub_r = conflict_r[conflicted]
    sub_i = conflict_i[conflicted]
    has_r = sub_r >= 0
    has_i = sub_i >= 0
    guard_r = np.maximum(sub_r, 0)
    guard_i = np.maximum(sub_i, 0)
    sub_depth: Optional[np.ndarray] = None
    for _ in range(max_waves):
        candidate = np.maximum(
            np.where(has_r, depth[guard_r] + 1, 0),
            np.where(has_i, depth[guard_i] + 1, 0),
        )
        if sub_depth is not None and np.array_equal(candidate, sub_depth):
            return depth
        sub_depth = candidate
        depth[conflicted] = sub_depth
    return None


class FastBatchEngine(BaseEngine):
    """Exact batched simulation via collision-free segment application.

    Parameters
    ----------
    protocol:
        The protocol to simulate.
    n:
        Population size (>= 2).
    rng:
        Seed or :class:`numpy.random.Generator`.
    kernel:
        ``"auto"`` (default) applies blocks through the optional C kernel
        (see :mod:`repro.engine._ckernel`) when one could be compiled and
        through the NumPy wave schedule otherwise; ``"numpy"`` forces the
        wave schedule; ``"c"`` requires the C kernel and raises when it is
        unavailable.  All paths produce bit-for-bit identical trajectories.
    """

    layout_free = True

    def __init__(
        self,
        protocol: PopulationProtocol,
        n: int,
        rng: RngLike = None,
        *,
        kernel: str = "auto",
    ) -> None:
        super().__init__(protocol, n, rng)
        if kernel not in ("auto", "c", "numpy"):
            raise ConfigurationError(
                f"kernel must be 'auto', 'c' or 'numpy', got {kernel!r}"
            )
        self._c_kernel = load_kernel() if kernel in ("auto", "c") else None
        if kernel == "c" and self._c_kernel is None:
            raise ConfigurationError(
                "kernel='c' requested but no C kernel could be compiled "
                "(no compiler on PATH, or REPRO_NO_C_KERNEL is set)"
            )
        self._sampler = PairSampler(n, make_rng(rng))
        configuration = protocol.initial_configuration(n)
        protocol.validate_configuration(configuration, n)
        # int32 keeps the per-agent array (the hot gather/scatter target)
        # twice as cache-dense as int64; state identifiers are tiny.  Initial
        # configurations are almost always a handful of long runs of equal
        # states, so run-length encoding them (itertools.groupby runs at C
        # speed) beats a per-agent Python loop by orders of magnitude at
        # n = 10^6.
        run_ids: List[int] = []
        run_lengths: List[int] = []
        for state, run in groupby(configuration):
            run_ids.append(self.table.encode(state))
            run_lengths.append(len(list(run)))
        self._agent_states = np.repeat(
            np.asarray(run_ids, dtype=np.int32), run_lengths
        )
        # Every stepping path keeps the ledger live from here on.
        self._count_agents(self._agent_states)
        # C-path state: this engine's FastBlock argument block and its
        # address, the pair buffers it points at, and the buffers whose
        # addresses it currently holds (see _bind_kernel_buffers).
        self._kernel_args: Optional[FastBlock] = None
        if self._c_kernel is not None:
            self._setup_kernel()

    # ------------------------------------------------------------------
    # The ledger
    # ------------------------------------------------------------------
    def _move(self, old_ids: np.ndarray, new_ids: np.ndarray) -> None:
        """Count agents leaving ``old_ids`` for ``new_ids`` (equal-length
        arrays, one entry per changed agent) and mark the new ids seen."""
        self._ensure_capacity()
        np.subtract.at(self._counts, old_ids, 1)
        np.add.at(self._counts, new_ids, 1)
        self._seen[new_ids] = 1

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _state_snapshot(self) -> dict:
        return {
            "agent_states": self._agent_states.copy(),
            "sampler": self._sampler.state_snapshot(),
        }

    def _state_restore(self, payload: dict) -> None:
        # Older builds recorded their pair-block size; only the one size the
        # engine still draws at continues the recorded stream.
        block = int(payload.get("block", PAIR_CHUNK))
        if block != PAIR_CHUNK:
            raise CheckpointError(
                f"fast-batch snapshot drew pairs in blocks of {block}; this "
                f"build draws blocks of {PAIR_CHUNK} only, so the recorded "
                "stream cannot continue"
            )
        self._agent_states = np.asarray(
            payload["agent_states"], dtype=np.int32
        ).copy()
        self._count_agents(self._agent_states)
        self._sampler.state_restore(payload["sampler"])
        if self._kernel_args is not None:
            self._kernel_args.chunk = self._kernel_args.position = 0

    # ------------------------------------------------------------------
    # C kernel
    # ------------------------------------------------------------------
    def _setup_kernel(self) -> None:
        """Build the kernel's argument block and its ``PAIR_CHUNK``-pair
        buffers, allocated once for the engine's life.

        The kernel draws each chunk itself, from this engine's bit generator,
        only for ``n < 2**32`` (the range its bounded draw reproduces);
        otherwise ``bitgen`` stays NULL and Python fills the pair buffers
        through ``pair_block``.  :meth:`_apply_block` fills them from its
        arguments either way.
        """
        generator = self._sampler.generator
        args = FastBlock(n=self.n, block=PAIR_CHUNK)
        self._responders = np.empty(PAIR_CHUNK, dtype=np.int64)
        self._initiators = np.empty(PAIR_CHUNK, dtype=np.int64)
        args.responders = self._responders.ctypes.data
        args.initiators = self._initiators.ctypes.data
        if self.n < 1 << 32:
            args.bitgen = generator.bit_generator.ctypes.bit_generator.value
            self._redraw = np.empty(PAIR_CHUNK, dtype=np.int64)
            args.redraw = self._redraw.ctypes.data
        self._kernel_args = args
        self._kernel_address = ctypes.addressof(args)
        self._bitgen_lock = generator.bit_generator.lock
        self._bound_states: Optional[np.ndarray] = None
        self._bound_lut: Optional[np.ndarray] = None
        self._bound_seen: Optional[np.ndarray] = None
        self._bound_counts: Optional[np.ndarray] = None

    def _bind_kernel_buffers(self) -> None:
        """Point the argument block at the current states, LUT, seen mask
        and count vector.

        An address is rewritten only when its buffer was reallocated.
        """
        args = self._kernel_args
        states = self._agent_states
        if states is not self._bound_states:
            self._bound_states = states
            args.states = states.ctypes.data
        lut = self.table.packed
        if lut is not self._bound_lut:
            self._bound_lut = lut
            args.lut = lut.ctypes.data
            args.cap = self.table.capacity
        self._ensure_capacity()
        if self._seen is not self._bound_seen:
            self._bound_seen = self._seen
            args.seen = self._seen.ctypes.data
        if self._counts is not self._bound_counts:
            self._bound_counts = self._counts
            args.counts = self._counts.ctypes.data

    def _run_kernel(self) -> None:
        """Call the kernel until it has applied ``args.remaining`` interactions.

        The kernel stops at the first lookup-table miss with ``position`` at
        that interaction; the missing pair is compiled into the shared table
        in Python with the *current* agent states (so encoder registration
        behaves exactly like the scalar engines) and the kernel resumes
        there, without drawing.  The kernel also marks every changed state in
        the seen mask and moves its count, so ``states_ever_occupied`` and
        the count vector stay exact on this path too.  The bit generator's
        lock is held around each call, as ``Generator.integers`` holds it.
        """
        args = self._kernel_args
        kernel = self._c_kernel
        address = self._kernel_address
        while True:
            self._bind_kernel_buffers()
            with self._bitgen_lock:
                missed = kernel(address)
            if not missed:
                return
            states = self._agent_states
            t = args.position
            self.table.apply(
                int(states[self._responders[t]]), int(states[self._initiators[t]])
            )

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _apply_segment(self, agents_r: np.ndarray, agents_i: np.ndarray) -> None:
        """Apply one collision-free set of interactions in bulk."""
        if agents_r.shape[0] == 0:
            return
        states = self._agent_states
        responder_ids = states[agents_r]
        initiator_ids = states[agents_i]
        new_responder_ids, new_initiator_ids = self.table.apply_block(
            responder_ids, initiator_ids
        )
        # All agent indices in the set are distinct, so the two scatters
        # below cannot overlap and the gather above saw pre-set states.
        # Scattering only the changed entries pays off massively once a
        # protocol approaches quiescence (most transitions are identities).
        changed = new_responder_ids != responder_ids
        if changed.any():
            changed_ids = new_responder_ids[changed]
            states[agents_r[changed]] = changed_ids
            self._move(responder_ids[changed], changed_ids)
        changed = new_initiator_ids != initiator_ids
        if changed.any():
            changed_ids = new_initiator_ids[changed]
            states[agents_i[changed]] = changed_ids
            self._move(initiator_ids[changed], changed_ids)

    def _apply_block_scalar(self, responders: np.ndarray, initiators: np.ndarray) -> None:
        """Scalar fallback mirroring the sequential engine's inner loop.

        Used when the block's dependency chains are deeper than the wave cap,
        i.e. for populations so small that batching cannot pay off anyway.
        Consumes no randomness, so the engine's stream stays aligned.
        """
        states = self._agent_states.tolist()
        table = self.table
        delta = table.delta
        apply_pair = table.apply
        old_ids: List[int] = []
        new_ids: List[int] = []
        for agent_r, agent_i in zip(responders.tolist(), initiators.tolist()):
            responder_id = states[agent_r]
            initiator_id = states[agent_i]
            result = delta.get((responder_id, initiator_id))
            if result is None:
                result = apply_pair(responder_id, initiator_id)
            new_responder_id, new_initiator_id = result
            if new_responder_id != responder_id:
                old_ids.append(responder_id)
                new_ids.append(new_responder_id)
            if new_initiator_id != initiator_id:
                old_ids.append(initiator_id)
                new_ids.append(new_initiator_id)
            states[agent_r], states[agent_i] = result
        self._agent_states = np.asarray(states, dtype=np.int32)
        self._move(np.asarray(old_ids, dtype=np.int64), np.asarray(new_ids, dtype=np.int64))

    def _apply_block(self, responders: np.ndarray, initiators: np.ndarray) -> None:
        """Apply one pre-sampled block in sequential order, on either path."""
        args = self._kernel_args
        if args is not None:
            m = int(responders.shape[0])
            self._responders[:m] = responders
            self._initiators[:m] = initiators
            args.chunk = args.remaining = m
            args.position = 0
            self._run_kernel()
            return
        conflict_r, conflict_i = conflict_columns(responders, initiators)
        depth = wave_depths(conflict_r, conflict_i)
        if depth is None:
            self._apply_block_scalar(responders, initiators)
            return
        conflicted = np.flatnonzero(depth > 0)
        if conflicted.size == 0:
            self._apply_segment(responders, initiators)
            return
        # Wave 0 is exactly the conflict-free majority of the block; later
        # waves are iterated over the small conflicted subset only.
        wave0 = np.flatnonzero(depth == 0)
        self._apply_segment(responders[wave0], initiators[wave0])
        sub_depth = depth[conflicted]
        for wave in range(1, int(sub_depth.max()) + 1):
            members = conflicted[sub_depth == wave]
            self._apply_segment(responders[members], initiators[members])

    def _perform_steps(self, count: int) -> None:
        if count <= 0:
            return
        args = self._kernel_args
        if args is not None and args.bitgen:
            # The kernel draws every chunk exactly as pair_block would.
            args.remaining = count
            self._run_kernel()
            self.interactions += count
            return
        remaining = count
        while remaining > 0:
            chunk = min(remaining, PAIR_CHUNK)
            responders, initiators = self._sampler.pair_block(chunk)
            self._apply_block(responders, initiators)
            remaining -= chunk
            self.interactions += chunk

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def agent_state(self, index: int):
        """State of agent ``index`` (useful in tests and traces)."""
        return self.encoder.decode(int(self._agent_states[index]))

    def agent_state_ids(self) -> List[int]:
        """A copy of the per-agent state-identifier array."""
        return self._agent_states.tolist()

    def population_snapshot(self) -> List:
        """Decoded states of all agents, by agent index."""
        decode = self.encoder.decode
        return [decode(int(sid)) for sid in self._agent_states]
