"""Exact-in-distribution batched simulation over state counts.

:class:`CountBatchEngine` is the configuration-space engine the tentpole
experiments at ``n = 10^7``–``10^8`` run on.  Agents are anonymous, so the
multiset of states is a sufficient statistic: the engine stores only the
state counts (``O(k)`` memory — no per-agent array, no ``O(n)``
construction) and processes interactions in *collision-free runs* of
expected length ``Θ(sqrt(n))``, in the style of Berenbrink et al.,
"Simulating Population Protocols in Sub-Constant Time per Interaction"
(ESA 2020).
Per-run work follows the *occupied* state frontier ``k``: a short run
over a wide frontier costs two alias-table picks per interaction, a
long run over a narrow one a hypergeometric split per occupied state and
per pairing cell, so the per-interaction cost vanishes as the population
grows; the dispatcher's cost model (:mod:`repro.engine.dispatch`) is
calibrated against it.  The batch loop lives in
:mod:`repro.engine._count_kernel`, in C and in a Python mirror that draw
the same xoshiro256++ stream, so a seed gives one trajectory whichever
runs.  It needs a complete transition table, the protocol's state
closure, so every pair a batch meets is compiled before the run starts;
per-agent engines may discover states lazily.

Exactness (in distribution)
===========================

The sequential model draws an i.i.d. sequence of uniformly random ordered
pairs of distinct agents.  Parse that sequence into *runs*: a maximal prefix
of interactions whose ``2L`` participating agents are all distinct, followed
by the first *colliding* interaction (one that reuses a participant).  Since
the pair sequence is i.i.d., re-anchoring the parse after every run is
exact, and each run can be sampled configuration-level:

1. **Run length.**  The ``j``-th pair avoids the ``2(j-1)`` agents already
   used with probability ``p_j = (n-2j+2)(n-2j+1) / (n(n-1))``, so
   ``P(L >= j) = p_1 ... p_j`` — a fixed survival curve depending only on
   ``n``, precomputed once; each batch draws ``L`` by inverting one uniform
   against it.  Truncating the curve (at ``~8.5 sqrt(n)``, where survival is
   ``~1e-30``, or at a caller's remaining-interaction budget) stays exact:
   conditioned on ``L >= r``, applying ``r`` collision-free pairs and
   re-anchoring is a valid parse as well — no collision step is owed.
2. **Participants.**  The ``2L`` distinct agents form a uniform ordered
   sample without replacement, and agents ``2j`` and ``2j + 1`` of it are
   the ``j``-th pair's responder and initiator; only the pair matrix
   ``M[a, b]`` (how many pairs meet states ``a`` and ``b``) matters, and
   any exact sampler of it keeps the engine exact.  Each batch draws it
   one of two ways, chosen by an integer rule of ``L``, the number of
   occupied states ``nocc`` and ``n`` (direct when
   ``L <= 8 (nocc - 1)`` and ``n * nocc`` fits in int64):

   * *direct*: the ``2L`` agents one by one.  A pick proposes a state with
     probability ``counts / n`` from an alias table over the occupied
     states, built once per batch, and accepts it with probability
     ``(counts - drawn) / counts``, where ``drawn`` counts the state's
     agents already picked in this batch; the accepted state is that of a
     uniform agent not yet drawn.  Consecutive picks form the pairs.  Two
     or three bounded draws per proposal, and about ``2L`` proposals,
     whatever ``nocc`` is.
   * *split*: the state multiset ``H`` of the sample is multivariate
     hypergeometric from the counts; the responder multiset ``R`` is a
     hypergeometric split of ``H`` (initiators ``I = H - R``), and ``M``
     follows by matching each responder state's slots against the
     remaining initiator pool (sequential hypergeometric rows).  Its
     draws grow with the states touched, not with ``L``, so it is the
     path of long runs over few states.

   All ``2L`` agents are distinct, so applying every pair through the
   compiled transition table *simultaneously* is exact.
3. **The colliding interaction.**  Conditioned on ending the run, the next
   pair has at least one participant among the ``2L`` used agents, whose
   post-transition state multiset ``U`` is known; the fresh agents keep the
   multiset ``counts_before - H``.  The ordered pair falls in category
   (used, fresh), (fresh, used) or (used, used) with weights ``uf``, ``fu``
   and ``u(u-1)``, and the two states are drawn from the corresponding
   multisets (without replacement within the used pool), proportionally to
   the counts.

The KS distributional-equivalence suite (``tests/test_engine_equivalence.py``)
pins this engine against :class:`SequentialEngine` on the epidemic,
approximate-majority and GSU19 workloads.  Unlike
:class:`~repro.engine.fast_batch.FastBatchEngine` the trajectories are not
bit-for-bit reproductions of the sequential engine's for equal seeds (the
randomness is consumed through entirely different draws); equality holds in
distribution, which is what every statistic in the paper's figures is a
function of.  Between the engine's two kernel implementations equality is
bit for bit.
"""

from __future__ import annotations

import ctypes
import math
from typing import Optional

import numpy as np

from repro.engine._count_kernel import (
    CountRow,
    load_count_kernel,
    logfact_reserve,
    run_row,
    seed_kernel_rng,
)
from repro.engine.base import BaseEngine
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike, make_rng, restore_rng_state, rng_state
from repro.errors import CheckpointError, ConfigurationError, ProtocolError

__all__ = ["CountBatchEngine", "MAX_EXACT_N"]

#: Survival-curve truncation: beyond ``_SURVIVAL_SPAN * sqrt(n)`` pairs the
#: all-distinct probability is ~1e-30; conditioning on reaching the cap and
#: re-anchoring there keeps the scheme exact (see the module docstring).
_SURVIVAL_SPAN = 8.5

#: Hard cap on the precomputed survival curve's length.  At ``n = 10^12``
#: the ``8.5 sqrt(n)`` span would be ~8.5M entries already; near
#: ``MAX_EXACT_N`` it would be ~810M entries (6.5 GB).  Truncating earlier
#: is *exact* for the same conditioning/re-anchoring reason as the span
#: truncation — a run cut short by the cap owes no collision — it merely
#: shortens the expected batch, so the cap only matters above ``n ~ 10^12``
#: where batches are millions of interactions either way.
_SURVIVAL_MAX_LEN = 1 << 23

#: Largest supported population size.  Every sampler in the engine (and in
#: the C kernel) manipulates counts through IEEE doubles — survival-curve
#: terms ``2j/n``, hypergeometric operands, cumulative multiset walks — so
#: exactness requires every integer in ``[0, n]`` to be representable:
#: ``n <= 2^53``.  (Counts themselves stay well inside int64.)  Beyond this
#: the engine refuses to construct rather than silently degrade.
MAX_EXACT_N = 2**53

#: The count stream a snapshot's kernel words continue: 3 is the stream
#: whose direct batches draw by alias picks with rejection (see
#: ``_count_kernel``).  Stream 2 (direct picks through a Fenwick tree) and
#: a snapshot without a stream id (the split-only stream) are retired and
#: refused by name.
_STREAM = 3

#: Retired count streams, by the id their snapshots carry.
_RETIRED_STREAMS = {
    None: "retired split-only count stream (every batch drawn by "
    "hypergeometric splits)",
    2: "retired stream-2 count stream (direct batches picked through a "
    "Fenwick tree)",
}


class CountBatchEngine(BaseEngine):
    """Exact-in-distribution batched engine over state counts.

    Parameters
    ----------
    protocol:
        The protocol to simulate.  Its table must be complete: the
        protocol declares a state closure (:mod:`repro.engine.table`)
        that holds its initial states, and any other protocol is refused
        with :class:`ProtocolError` (per-agent engines discover states
        lazily).  The per-batch cost follows the number of *occupied*
        states, so the engine shines for small-frontier protocols at huge
        ``n``.  At ``n >= 10^7`` the protocol must declare
        ``initial_counts`` (the O(n) configuration fallback is refused, see
        :func:`~repro.engine.protocol.initial_count_items`).
    n:
        Population size (``2 <= n <= MAX_EXACT_N``).
    rng:
        Seed or :class:`numpy.random.Generator`.
    kernel:
        ``"auto"`` (default) uses the compiled count kernel when a C
        compiler is available and falls back to its Python mirror
        silently; ``"c"`` requires the compiled kernel
        (:class:`ConfigurationError` if it cannot be built); ``"python"``
        pins the mirror.  Both draw the same stream, so the choice changes
        speed only, never a trajectory.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        n: int,
        rng: RngLike = None,
        *,
        kernel: str = "auto",
    ) -> None:
        super().__init__(protocol, n, rng)
        if n > MAX_EXACT_N:
            raise ProtocolError(
                f"CountBatchEngine supports n <= 2^53 ({MAX_EXACT_N}); "
                f"got n = {n}.  Beyond that, float64 can no longer "
                "represent every agent count exactly and the batched "
                "sampling would silently lose mass."
            )
        if kernel not in ("auto", "c", "python"):
            raise ConfigurationError(
                f"kernel must be 'auto', 'c' or 'python', got {kernel!r}"
            )
        self._rng = make_rng(rng)
        self._count_initial()
        table = self.table
        if not 0 < len(table) == table.canonical_count:
            raise ProtocolError(
                f"CountBatchEngine needs a complete transition table, but "
                f"protocol {protocol.name!r} declares no state closure that "
                "holds its initial states; simulate it on a per-agent engine "
                "(fastbatch or sequential)"
            )
        # Precomputed negated survival curve -P(L >= j), j = 1..jmax,
        # ascending (searchsorted-ready).  Depends only on n.  The terms
        # are computed with log1p on the *ratios* 2j/n — exact-in-float —
        # rather than log(n - 2j), whose float64 subtraction loses integer
        # precision once n approaches 2^53.  The _SURVIVAL_MAX_LEN cap
        # bounds the table's memory at huge n (exact by conditioning, see
        # the constant's docstring).
        jmax = max(
            1,
            min(
                n // 2,
                int(_SURVIVAL_SPAN * math.sqrt(n)) + 16,
                _SURVIVAL_MAX_LEN,
            ),
        )
        steps = np.arange(jmax, dtype=np.float64)
        log_p = np.log1p(-2.0 * steps / n) + np.log1p(-2.0 * steps / (n - 1.0))
        self._neg_survival = -np.exp(np.cumsum(log_p))
        self._jmax = jmax
        # The engine's stream: xoshiro256++ words seeded by one draw from
        # the generator, advanced by the C kernel or by its Python mirror
        # (run_row), which draw identically.  The C path keeps its CountRow
        # argument block and the addresses of the buffers it points at
        # (see _c_row).
        self._kernel = None
        if kernel != "python":
            self._kernel = load_count_kernel()
            if self._kernel is None and kernel == "c":
                raise ConfigurationError(
                    "kernel='c' requested but the count kernel is "
                    "unavailable (no C compiler, or REPRO_NO_C_KERNEL=1)"
                )
        self._kernel_rng = seed_kernel_rng(self._rng)
        if self._kernel is not None:
            self._kernel_args = CountRow(rng=self._kernel_rng.ctypes.data)
            self._row_address = ctypes.addressof(self._kernel_args)
            self._survival_address = self._neg_survival.ctypes.data
            self._scratch: Optional[np.ndarray] = None
            self._scratch_address = 0
            self._bound_counts: Optional[np.ndarray] = None
            self._bound_seen: Optional[np.ndarray] = None
            self._bound_lut: Optional[np.ndarray] = None
            # Table-served log-factorials for every HRUA operand (all are
            # <= n; the reserve clamps to its cap).  The entries equal the
            # lgamma fallback bit for bit, so the stream is unchanged.
            logfact_reserve(n + 1)

    # ------------------------------------------------------------------
    # Batched stepping
    # ------------------------------------------------------------------
    def _perform_steps(self, count: int) -> None:
        """Advance by ``count`` interactions in one row call (C or Python)
        on the count vector and seen mask, over the ``k`` states of the
        complete table."""
        self._ensure_capacity()
        row = self._python_row if self._kernel is None else self._c_row
        self.interactions += row(len(self.encoder), int(count))

    def _python_row(self, k: int, budget: int) -> int:
        table = self.table
        return run_row(
            self._counts, self._seen, self._kernel_rng, table.packed, k,
            table.capacity, budget, self.n, self._neg_survival, self._jmax,
        )

    def _c_row(self, k: int, budget: int) -> int:
        """One ``repro_count_row`` call.

        An address is read only when its buffer is (re)allocated:
        ``.ctypes.data`` costs microseconds, and a run checked every
        parallel time unit enters the kernel once per check.
        """
        args = self._kernel_args
        args.k = k
        args.budget = budget
        if self._counts is not self._bound_counts:
            self._bound_counts = self._counts
            args.counts = self._counts.ctypes.data
        if self._seen is not self._bound_seen:
            self._bound_seen = self._seen
            args.seen = self._seen.ctypes.data
        lut = self.table.packed
        if lut is not self._bound_lut:
            self._bound_lut = lut
            args.lut = lut.ctypes.data
            args.cap = self.table.capacity
        if self._scratch is None or self._scratch.shape[0] != 11 * k:
            # Weight regions must be zero; id-list, candidate and pool
            # regions are plain scratch, so a fresh zeroed allocation needs
            # no copying.  Any size change reallocates: slab offsets move
            # with k.
            self._scratch = np.zeros(11 * k, dtype=np.int64)
            self._scratch_address = self._scratch.ctypes.data
        self._kernel(
            self._row_address,
            self.n,
            self._survival_address,
            self._jmax,
            self._scratch_address,
        )
        return args.applied

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _state_snapshot(self) -> dict:
        # The survival curve is a pure function of n, rebuilt at
        # construction; only the counts and the RNG positions are run
        # state.  Counts are sparse: the occupied ids and their counts as
        # raw little-endian bytes.  ``kernel_rng`` holds the xoshiro256++
        # words (raw bytes too).
        # ``stream`` names the batch law the words continue (see _STREAM).
        counts = self.count_vector()
        ids = np.flatnonzero(counts)
        return {
            "ids": ids.astype("<i4").tobytes(),
            "values": counts[ids].astype("<i8").tobytes(),
            "rng": rng_state(self._rng),
            "kernel_rng": self._kernel_rng.astype("<u8").tobytes(),
            "stream": _STREAM,
        }

    def _state_restore(self, payload: dict) -> None:
        if payload.get("kernel_rng") is None:
            raise CheckpointError(
                "this count-batch checkpoint was written by the retired "
                "NumPy count stream (the old kernel='python' path), which no "
                "build continues; rerun the cell from its seed"
            )
        stream = payload.get("stream")
        if stream != _STREAM:
            written_by = _RETIRED_STREAMS.get(
                stream, f"unknown count stream {stream!r}"
            )
            raise CheckpointError(
                f"this count-batch checkpoint was written by the {written_by}, "
                "which no build continues; rerun the cell from its seed"
            )
        if len(self.table) != self.table.canonical_count:
            raise CheckpointError(
                "the snapshot registers states outside the protocol's "
                "complete transition table, which count space cannot run on"
            )
        # In place, like the kernel words: the C argument block holds the
        # ledger's and the words' addresses.
        self._counts[:] = 0
        self._counts[np.frombuffer(payload["ids"], dtype="<i4")] = np.frombuffer(
            payload["values"], dtype="<i8"
        )
        restore_rng_state(self._rng, payload["rng"])
        self._kernel_rng[:] = np.frombuffer(payload["kernel_rng"], dtype="<u8")
