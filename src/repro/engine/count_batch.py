"""Exact-in-distribution batched simulation over state counts.

:class:`CountBatchEngine` is the configuration-space engine the tentpole
experiments at ``n = 10^7``–``10^8`` run on.  Agents are anonymous, so the
multiset of states is a sufficient statistic: the engine stores only the
state counts (``O(k)`` memory — no per-agent array, no ``O(n)``
construction) and processes interactions in *collision-free runs* of
expected length ``Θ(sqrt(n))``, in the style of Berenbrink et al.,
"Simulating Population Protocols in Sub-Constant Time per Interaction"
(ESA 2020).
Per-run work follows the *occupied* state frontier ``k`` — quadratic scalar
hypergeometric splits while ``k`` is small, one compacted vectorised split
per pairing row beyond ``_MVH_SCALAR_MAX_OCCUPIED`` — so the
per-interaction cost vanishes as the population grows; the dispatcher's
cost model (:mod:`repro.engine.dispatch`) is calibrated against exactly
these paths.

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
   sample without replacement, so their state multiset ``H`` is multivariate
   hypergeometric from the counts; the responder multiset ``R`` is a
   hypergeometric split of ``H`` (initiators ``I = H - R``), and the pairing
   contingency matrix ``M[a, b]`` follows by matching each responder state's
   slots against the remaining initiator pool (sequential hypergeometric
   rows).  All ``2L`` agents are distinct, so applying every pair through
   the compiled transition table *simultaneously* is exact.
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
function of.
"""

from __future__ import annotations

import ctypes
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.engine._count_kernel import (
    CountRow,
    load_count_kernel,
    logfact_reserve,
    seed_kernel_rng,
)
from repro.engine.base import BaseEngine
from repro.engine.protocol import PopulationProtocol, initial_count_items
from repro.engine.rng import RngLike, make_rng, restore_rng_state, rng_state
from repro.errors import ConfigurationError, ProtocolError

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

#: NumPy's ``Generator.hypergeometric`` raises once ``ngood`` or ``nbad``
#: reaches 10^9 (and ``multivariate_hypergeometric`` refuses a total of
#: 10^9): below the cap the engine uses NumPy's samplers (keeping the
#: RNG stream — and the trajectory-digest pins — unchanged), at or above
#: it the pure-Python equivalents below take over.
_NUMPY_HYPERGEOMETRIC_CAP = 10**9

#: Occupied-state count above which a multivariate hypergeometric draw
#: switches from the scalar sequential-conditional decomposition (~1.7us per
#: occupied state, unbeatable for the classic 2-4 state protocols) to one
#: compacted :func:`numpy.random.Generator.multivariate_hypergeometric` call
#: (~14us flat + ~0.14us per state — linear instead of quadratic pairing
#: cost once protocols like GSU19 occupy dozens of states at a time).  Both
#: decompositions sample the *same* distribution (chain rule), so the switch
#: is invisible to every statistic; only the raw RNG stream differs.
_MVH_SCALAR_MAX_OCCUPIED = 12


def sample_weighted_index(weights, target: float, exclude: int = -1) -> int:
    """Index into ``weights`` at the uniform deviate ``target`` (pre-scaled
    by the total weight), one unit of ``exclude`` removed from the pool;
    the last index with mass on floating point slack."""
    acc = 0.0
    last = -1
    for index, weight in enumerate(weights):
        effective = weight - 1 if index == exclude else weight
        if effective <= 0:
            continue
        last = index
        acc += effective
        if target < acc:
            return index
    return last


def _logfactorial(k: int) -> float:
    return math.lgamma(k + 1.0)


def _hypergeometric_large(rng, good: int, bad: int, sample: int) -> int:
    """Exact hypergeometric variate for operands beyond NumPy's 10^9 cap.

    Same algorithm pair as NumPy's ``Generator.hypergeometric`` (urn
    inversion when the symmetrised sample is < 10, Stadlober's HRUA
    ratio-of-uniforms rejection otherwise) and the same pair the C count
    kernel uses, implemented over ``rng.random()`` uniforms so it is valid
    for any operands exact in float64 — i.e. up to ``MAX_EXACT_N``.  Only
    reached when an operand is >= ``_NUMPY_HYPERGEOMETRIC_CAP``, so the
    sub-cap RNG stream (and every existing digest pin) is untouched.
    """
    total = good + bad
    computed = min(sample, total - sample)
    if good <= 0:
        return 0
    if bad <= 0:
        return sample
    if computed < 10:
        # Urn inversion on the symmetrised draw.
        rem_good = good
        rem_total = total
        taken = 0
        for i in range(computed):
            if rem_good == 0:
                break
            if rem_good == rem_total:
                taken += computed - i
                break
            if float(rng.random()) * rem_total < rem_good:
                taken += 1
                rem_good -= 1
            rem_total -= 1
        return taken if computed == sample else good - taken
    mingoodbad = min(good, bad)
    maxgoodbad = max(good, bad)
    p = mingoodbad / total
    q = maxgoodbad / total
    mu = computed * p
    a = mu + 0.5
    var = (total - computed) * computed * p * q / (total - 1)
    c = math.sqrt(var + 0.5)
    h = 1.7155277699214135 * c + 0.8989161620588987  # 2*sqrt(2/e), 3-2*sqrt(3/e)
    mode = int((computed + 1) * ((mingoodbad + 1) / (total + 2)))
    g = (
        _logfactorial(mode)
        + _logfactorial(mingoodbad - mode)
        + _logfactorial(computed - mode)
        + _logfactorial(maxgoodbad - computed + mode)
    )
    bound = min(min(computed, mingoodbad) + 1, math.floor(a + 16.0 * c))
    while True:
        u = float(rng.random())
        v = float(rng.random())
        if u <= 0.0:
            continue
        x = a + h * (v - 0.5) / u
        if x < 0.0 or x >= bound:
            continue
        k = int(x)
        gp = (
            _logfactorial(k)
            + _logfactorial(mingoodbad - k)
            + _logfactorial(computed - k)
            + _logfactorial(maxgoodbad - computed + k)
        )
        t = g - gp
        if u * (4.0 - u) - 3.0 <= t:
            break
        if u * (u - t) >= 1.0:
            continue
        if 2.0 * math.log(u) <= t:
            break
    if good > bad:
        k = computed - k
    if computed < sample:
        k = good - k
    return k


class CountBatchEngine(BaseEngine):
    """Exact-in-distribution batched engine over state counts.

    Parameters
    ----------
    protocol:
        The protocol to simulate.  Works for any protocol, but the per-batch
        cost grows with the number of *occupied* states (quadratically on
        the small-frontier scalar path, linearly once the vectorised splits
        take over) — the engine shines for small-frontier protocols at huge
        ``n``.  At ``n >= 10^7`` the protocol must declare ``initial_counts``
        (the O(n) configuration fallback is refused, see
        :func:`~repro.engine.protocol.initial_count_items`).
    n:
        Population size (``2 <= n <= MAX_EXACT_N``).
    rng:
        Seed or :class:`numpy.random.Generator`.
    kernel:
        ``"auto"`` (default) uses the compiled count kernel when a C
        compiler is available and falls back to the Python path silently;
        ``"c"`` requires the kernel (:class:`ConfigurationError` if it
        cannot be built); ``"python"`` pins the pure-Python path.  The two
        paths are equal in distribution but consume randomness differently
        (the kernel runs its own xoshiro256++ stream), so each carries its
        own trajectory-digest pins.
    """

    exact = True

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
        counts = np.zeros(max(1, len(self.encoder)), dtype=np.int64)
        for state, count in initial_count_items(protocol, n):
            sid = self._encode_initial(state)
            if sid >= counts.shape[0]:
                counts = self._grown(counts, len(self.encoder))
            counts[sid] += count
        self._counts = counts
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
        # Scalar hypergeometric entry point: NumPy's generator below its
        # 10^9 operand cap (total <= n bounds every operand, so small-n
        # engines keep the exact NumPy stream the digest pins record), the
        # pure-Python samplers above it.
        if n < _NUMPY_HYPERGEOMETRIC_CAP:
            self._hyper = self._rng.hypergeometric
        else:
            self._hyper = self._hypergeometric_checked
        # Optional compiled hot path (own RNG stream, seeded from the
        # engine generator only when active so the Python path's stream
        # is byte-identical to pre-kernel releases).  The kernel state is
        # this engine's CountRow argument block and its address, the
        # buffers the block points at and the scratch workspace (see
        # _advance_kernel).
        self._kernel = None
        self._kernel_rng = None
        self._kernel_args: Optional[CountRow] = None
        self._row_address = 0
        self._scratch: Optional[np.ndarray] = None
        self._scratch_address = 0
        self._seen_mask: Optional[np.ndarray] = None
        self._bound_counts: Optional[np.ndarray] = None
        self._bound_lut: Optional[np.ndarray] = None
        if kernel in ("auto", "c"):
            self._kernel = load_count_kernel()
            if self._kernel is None and kernel == "c":
                raise ConfigurationError(
                    "kernel='c' requested but the count kernel is "
                    "unavailable (no C compiler, or REPRO_NO_C_KERNEL=1)"
                )
            if self._kernel is not None:
                self._kernel_rng = seed_kernel_rng(self._rng)
                self._kernel_args = CountRow(rng=self._kernel_rng.ctypes.data)
                self._row_address = ctypes.addressof(self._kernel_args)
                self._survival_address = self._neg_survival.ctypes.data
                # Table-served log-factorials for every HRUA operand (all
                # are <= n; the reserve clamps to its cap).  The entries
                # equal the lgamma fallback bit-for-bit, so the stream is
                # unchanged.
                logfact_reserve(n + 1)

    # ------------------------------------------------------------------
    # Count bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def _grown(array: np.ndarray, size: int) -> np.ndarray:
        grown = np.zeros(max(size, array.shape[0]), dtype=np.int64)
        grown[: array.shape[0]] = array
        return grown

    def _ensure_counts(self) -> None:
        if self._counts.shape[0] < len(self.encoder):
            self._counts = self._grown(self._counts, len(self.encoder))

    # ------------------------------------------------------------------
    # Batched stepping
    # ------------------------------------------------------------------
    def _hypergeometric_checked(self, good: int, bad: int, nsample: int) -> int:
        """Scalar hypergeometric draw with width-checked promotion.

        NumPy whenever both operands are below its 10^9 cap (identical
        stream to the uncapped engines), the pure-Python exact sampler
        beyond it.  Bound as ``self._hyper`` only when ``n`` can exceed
        the cap, so small-``n`` engines pay no per-draw check at all.
        """
        if good < _NUMPY_HYPERGEOMETRIC_CAP and bad < _NUMPY_HYPERGEOMETRIC_CAP:
            return self._rng.hypergeometric(good, bad, nsample)
        return _hypergeometric_large(self._rng, int(good), int(bad), int(nsample))

    def _draw_run_length(self, remaining: int) -> Tuple[int, bool]:
        """Sample the collision-free run length, capped by ``remaining``.

        Returns ``(length, collide)`` where ``collide`` says whether the run
        is followed by the colliding interaction that ended it.  Hitting the
        survival-curve truncation or the remaining-interaction budget means
        the run was cut short by conditioning, not by a collision.
        """
        u = float(self._rng.random())
        length = int(np.searchsorted(self._neg_survival, -u, side="right"))
        length = max(1, length)
        collide = length < self._jmax
        if length >= remaining:
            length = remaining
            collide = False
        return length, collide

    def _multivariate_hypergeometric(
        self, colors: np.ndarray, nsample: int, total: int
    ) -> np.ndarray:
        """Multivariate hypergeometric draw via sequential conditionals.

        Distribution-identical to NumPy's ``multivariate_hypergeometric``
        but built from scalar ``hypergeometric`` calls, which avoids ~10us
        of per-call wrapper overhead — the dominant cost of a batch for
        small state spaces.  ``total`` must equal ``colors.sum()``.

        Only *occupied* colors are visited (empty ones never consumed a
        draw, so skipping them is RNG-stream-identical): per-batch cost
        follows the occupied frontier, not the declared state-space size —
        the property the dispatcher's cost model relies on for protocols
        like GSU19 whose reachable closure has ``~10^3`` states while runs
        occupy a few hundred at a time.
        """
        out = np.zeros(colors.shape[0], dtype=np.int64)
        m = int(nsample)
        if m == 0:
            return out
        if colors.shape[0] <= _MVH_SCALAR_MAX_OCCUPIED:
            # Short dense vector (the classic 2-4 state protocols): walk it
            # directly — a flatnonzero pass would cost more than it saves.
            hyper = self._hyper
            for sid, color in enumerate(colors.tolist()):
                if m == 0:
                    break
                if color == 0:
                    continue
                rest = total - color
                if rest == 0:
                    out[sid] = m
                    break
                drawn = int(hyper(color, rest, m))
                out[sid] = drawn
                m -= drawn
                total = rest
            return out
        occupied = np.flatnonzero(colors)
        if (
            occupied.shape[0] > _MVH_SCALAR_MAX_OCCUPIED
            and total < _NUMPY_HYPERGEOMETRIC_CAP
        ):
            # NumPy's vectorised marginals sampler refuses totals >= 10^9;
            # past the cap the scalar sequential-conditional loop below
            # (with width-checked draws) covers any occupied count.
            out[occupied] = self._rng.multivariate_hypergeometric(
                colors[occupied], m
            )
            return out
        hyper = self._hyper
        for sid in occupied.tolist():
            if m == 0:
                break
            color = int(colors[sid])
            rest = total - color
            if rest == 0:
                out[sid] = m
                break
            drawn = int(hyper(color, rest, m))
            out[sid] = drawn
            m -= drawn
            total = rest
        return out

    def _pair_matrix(
        self, pairs: int
    ) -> Tuple[np.ndarray, List[int], List[int], List[int]]:
        """Sample the batch's participant states and pairing contingency.

        Returns ``(involved, pair_r, pair_i, pair_m)``: the hypergeometric
        state multiset of the ``2 * pairs`` distinct participants, plus the
        nonzero cells of the responder/initiator pairing matrix.
        """
        counts = self._counts
        involved = self._multivariate_hypergeometric(counts, 2 * pairs, self.n)
        responders = self._multivariate_hypergeometric(involved, pairs, 2 * pairs)
        pair_r: List[int] = []
        pair_i: List[int] = []
        pair_m: List[int] = []
        remaining_i = involved - responders
        remaining_total = pairs
        occupied_r = np.flatnonzero(responders).tolist()
        last = len(occupied_r) - 1
        for index, a in enumerate(occupied_r):
            slots = int(responders[a])
            if index == last:
                # The final responder state takes the whole remaining
                # initiator pool — deterministic, no draw needed.  Copy:
                # returning the pool buffer itself would alias a vector
                # this loop (and any caller reusing buffers in place, like
                # the kernel-parity tests) may still mutate.
                row = remaining_i.copy()
            else:
                row = self._multivariate_hypergeometric(
                    remaining_i, slots, remaining_total
                )
                remaining_i = remaining_i - row
                remaining_total -= slots
            for b in np.flatnonzero(row).tolist():
                pair_r.append(a)
                pair_i.append(b)
                pair_m.append(int(row[b]))
        return involved, pair_r, pair_i, pair_m

    def _sample_multiset(self, vector: np.ndarray, total: int, exclude: int = -1) -> int:
        """Sample a state id proportionally to a count vector.

        ``exclude`` removes one agent of that state from the pool (drawing
        the second member of an ordered pair without replacement).  The scan
        is compacted to the occupied entries first — zero-count states never
        influence the cumulative walk, so the result (and the single uniform
        consumed) is identical while the cost follows the occupied frontier
        rather than the declared state-space size.
        """
        if vector.shape[0] <= _MVH_SCALAR_MAX_OCCUPIED:
            return sample_weighted_index(
                vector.tolist(), float(self._rng.random()) * total, exclude
            )
        occupied = np.flatnonzero(vector)
        compact_exclude = -1
        if exclude >= 0:
            position = int(np.searchsorted(occupied, exclude))
            if position < occupied.shape[0] and occupied[position] == exclude:
                compact_exclude = position
        index = sample_weighted_index(
            vector[occupied].tolist(),
            float(self._rng.random()) * total,
            compact_exclude,
        )
        return int(occupied[index])

    def _run_batch(self, remaining: int) -> int:
        """Advance by one collision-free run (plus its colliding interaction
        when one ended the run); returns the number of interactions applied."""
        length, collide = self._draw_run_length(remaining)
        self._ensure_counts()
        involved, pair_r, pair_i, pair_m = self._pair_matrix(length)
        apply_pair = self.table.apply
        cells = [
            (apply_pair(responder_id, initiator_id), multiplicity)
            for responder_id, initiator_id, multiplicity in zip(pair_r, pair_i, pair_m)
        ]
        self._ensure_counts()  # the table may have discovered new states
        counts = self._counts
        size = counts.shape[0]
        if involved.shape[0] < size:
            involved = self._grown(involved, size)
        # All 2L participants are distinct, so the bulk update is exact:
        # remove every participant's pre state, add every post state.  The
        # pairing matrix has at most k^2 nonzero cells (a handful for the
        # protocols this engine targets), so scalar accumulation beats
        # np.add.at here.
        used = np.zeros(size, dtype=np.int64)
        for (new_responder_id, new_initiator_id), multiplicity in cells:
            used[new_responder_id] += multiplicity
            used[new_initiator_id] += multiplicity
        counts += used
        counts -= involved
        # Post states of the participants are all occupied now; once every
        # registered state has been occupied nothing new can appear without
        # the encoder growing first, so the update can be skipped entirely.
        if len(self._ever_occupied) < len(self.encoder):
            self._ever_occupied.update(np.flatnonzero(used).tolist())
        applied = length
        if collide:
            self._apply_collision(used, 2 * length)
            applied += 1
        self.interactions += applied
        return applied

    def _apply_collision(self, used: np.ndarray, used_total: int) -> None:
        """Apply the interaction that ended the run (reuses >= 1 participant)."""
        rng = self._rng
        counts = self._counts
        fresh = counts - used  # participants' post states removed
        fresh_total = self.n - used_total
        weight_uf = used_total * fresh_total
        weight_uu = used_total * (used_total - 1)
        pick = float(rng.random()) * (2 * weight_uf + weight_uu)
        if pick < weight_uf:
            responder_id = self._sample_multiset(used, used_total)
            initiator_id = self._sample_multiset(fresh, fresh_total)
        elif pick < 2 * weight_uf:
            responder_id = self._sample_multiset(fresh, fresh_total)
            initiator_id = self._sample_multiset(used, used_total)
        else:
            responder_id = self._sample_multiset(used, used_total)
            initiator_id = self._sample_multiset(
                used, used_total - 1, exclude=responder_id
            )
        new_responder_id, new_initiator_id = self.table.apply(
            responder_id, initiator_id
        )
        self._ensure_counts()
        counts = self._counts
        if new_responder_id != responder_id:
            counts[responder_id] -= 1
            counts[new_responder_id] += 1
            self._ever_occupied.add(new_responder_id)
        if new_initiator_id != initiator_id:
            counts[initiator_id] -= 1
            counts[new_initiator_id] += 1
            self._ever_occupied.add(new_initiator_id)

    def _perform_steps(self, count: int) -> None:
        if self._kernel is None:
            remaining = int(count)
            while remaining > 0:
                remaining -= self._run_batch(remaining)
            return
        self._advance_kernel(int(count))

    def _advance_kernel(self, budget: int) -> None:
        """Advance by ``budget`` interactions through the C entry.

        Each round grows the buffers to the encoder, makes one C call, then
        commits interactions and compiles any reported LUT miss (possibly
        registering states) before re-entering with the remaining budget.
        A miss rolls the missed batch back, RNG included, so the re-entry
        redraws it against the completed table.  Ever-occupied bits stay in
        the seen mask until read (:meth:`_merge_seen`).

        An address is read only when its buffer is (re)allocated:
        ``.ctypes.data`` costs microseconds and a lazily compiling run
        enters the kernel once per LUT miss, tens of thousands of times in
        a GSU19 run.
        """
        args = self._kernel_args
        args.budget = budget
        while args.budget > 0:
            self._ensure_counts()
            args.k = k = len(self.encoder)
            if self._counts is not self._bound_counts:
                self._bound_counts = self._counts
                args.counts = self._counts.ctypes.data
            seen = self._seen_mask
            if seen is None or seen.shape[0] < k:
                grown = np.zeros(k, dtype=np.uint8)
                if seen is not None:
                    grown[: seen.shape[0]] = seen
                self._seen_mask = grown
                args.seen = grown.ctypes.data
            # Consistent (array, capacity) snapshot; holding the array keeps
            # it alive through the GIL-released call even if another thread
            # grows the table meanwhile (a stale snapshot only misses).
            lut, cap = self.table.packed_view()
            if lut is not self._bound_lut:
                self._bound_lut = lut
                args.lut = lut.ctypes.data
                args.cap = cap
            if self._scratch is None or self._scratch.shape[0] != 11 * k:
                # Weight regions must be zero; id-list, candidate and pool
                # regions are plain scratch, so a fresh zeroed allocation
                # needs no copying.  Any size change reallocates: slab
                # offsets move with k.
                self._scratch = np.zeros(11 * k, dtype=np.int64)
                self._scratch_address = self._scratch.ctypes.data
            self._kernel(
                self._row_address,
                self.n,
                self._survival_address,
                self._jmax,
                self._scratch_address,
            )
            self.interactions += args.applied
            args.budget -= args.applied
            if args.miss_r >= 0:
                self.table.apply(args.miss_r, args.miss_i)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _state_snapshot(self) -> dict:
        # The survival curve is a pure function of n, rebuilt at
        # construction; only the counts and the RNG position(s) are run
        # state.  Counts are sparse: the occupied ids and their counts as
        # raw little-endian bytes, plus the length of the count buffer.
        # ``kernel_rng`` (the xoshiro256++ words, raw bytes too) appears
        # only for kernel-path engines.
        counts = self._counts
        ids = np.flatnonzero(counts)
        payload = {
            "size": int(counts.shape[0]),
            "ids": ids.astype("<i4").tobytes(),
            "values": counts[ids].astype("<i8").tobytes(),
            "rng": rng_state(self._rng),
        }
        if self._kernel is not None:
            payload["kernel_rng"] = self._kernel_rng.astype("<u8").tobytes()
        return payload

    def _state_restore(self, payload: dict) -> None:
        if "counts" in payload:  # version-1 snapshots store dense counts
            counts = np.asarray(payload["counts"], dtype=np.int64).copy()
        else:
            counts = np.zeros(payload["size"], dtype=np.int64)
            counts[np.frombuffer(payload["ids"], dtype="<i4")] = np.frombuffer(
                payload["values"], dtype="<i8"
            )
        self._counts = self._grown(counts, len(self.encoder))
        restore_rng_state(self._rng, payload["rng"])
        kernel_rng = payload.get("kernel_rng")
        if kernel_rng is not None and self._kernel is not None:
            if isinstance(kernel_rng, bytes):  # version 1 stored an array instead
                kernel_rng = np.frombuffer(kernel_rng, dtype="<u8")
            # In place: the kernel argument block holds this buffer's address.
            self._kernel_rng[:] = kernel_rng
        elif kernel_rng is None:
            # Pre-kernel (or Python-path) checkpoint: the recorded
            # trajectory consumed the NumPy stream only, so continuing it
            # byte-exactly requires the Python path.  Distributional
            # equality is unaffected either way.
            self._kernel = None
            self._kernel_rng = None
        # A kernel-path checkpoint restored where the kernel is missing
        # (kernel_rng present, self._kernel None) continues on the Python
        # path: exact in distribution, though not the byte-identical
        # trajectory the original machine would have produced.
        # Stale ever-occupied bits must not leak into the restored
        # timeline; _ever_occupied itself was restored by the base class.
        self._seen_mask = None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def _merge_seen(self) -> None:
        """Fold the kernel's seen mask into the ever-occupied set.

        The kernel marks every state a commit lands in; merging when the
        set is read, not after every kernel call, keeps the call path free
        of NumPy allocations.
        """
        if self._seen_mask is not None:
            self._ever_occupied.update(np.flatnonzero(self._seen_mask).tolist())

    @property
    def states_ever_occupied(self) -> int:
        self._merge_seen()
        return len(self._ever_occupied)

    def _occupied_mask(self, size: int) -> np.ndarray:
        mask = super()._occupied_mask(size)
        seen = self._seen_mask
        if seen is not None:
            seen = seen[:size]
            mask[: seen.shape[0]] |= seen
        return mask

    def state_count_items(self) -> List[Tuple[int, int]]:
        counts = self._counts
        return [(int(sid), int(counts[sid])) for sid in np.flatnonzero(counts > 0)]

    def count_vector(self) -> np.ndarray:
        """The engine's native count vector (read-only view, no copy)."""
        self._ensure_counts()
        return self._counts[: len(self.encoder)]

    def counts_by_output(self):
        """Vectorised aggregation through the table's output maps."""
        return self.table.aggregate_counts(self._counts)
