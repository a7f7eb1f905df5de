"""The count-batch kernel: one random stream, two implementations.

:class:`~repro.engine.count_batch.CountBatchEngine` samples collision-free
runs configuration-level: one survival-curve inversion for the run length,
the run's pairs (by ordered picks, or by a cascade of hypergeometric
splits for the participant/responder/pairing multisets), and a
weighted-category draw for the colliding interaction.  This module holds
that whole batch loop twice: as C source (``run_row``,
compiled on first use, one call per chunk of batches) and as its
statement-for-statement Python mirror (:func:`run_row`), which the engine
runs under ``kernel="python"`` and wherever no compiler exists.  Both
consume the same xoshiro256++ stream word for word, so every count-batch
trajectory is one pinned digest whichever implementation drew it.

Design notes
============

* **One stream.**  xoshiro256++ (public-domain Blackman/Vigna generator),
  seeded once from the engine's NumPy generator via SplitMix64
  (:func:`seed_kernel_rng`).  The four 64-bit state words live in a NumPy
  array owned by the engine, so checkpoint/restore is byte-exact and a
  checkpoint written by one implementation resumes on the other.
* **Two batch paths, one rule.**  A batch's ``2L`` participants are a
  uniform ordered sample without replacement (Berenbrink et al., "Simulating
  Population Protocols in Sub-Constant Time per Interaction", ESA 2020), so
  any exact sampler of its pairs keeps the engine exact.  The *direct*
  path draws the sample itself: each pick is one Lemire bounded integer
  below the fresh count ("Fast Random Integer Generation in an Interval",
  ACM TOMACS 2019), mapped to the first ``occ`` position whose running
  weight ``counts - involved`` exceeds it, and picks ``2j``/``2j + 1`` are
  the ``j``-th (responder, initiator) pair.  C searches a Fenwick tree over
  the ``occ`` positions (``O(log nocc)`` per pick, the tree in the pool
  scratch region); the mirror keeps the same tree.  The *split* path draws
  the participant, responder and pairing multisets by hypergeometric
  splits, one per occupied state and pairing cell.  ``direct_batch`` picks
  the path per batch by integer arithmetic on ``(L, nocc)``: direct when
  ``L <= 4 (nocc - 1)``.  Small batches over wide frontiers (GSU19 below
  about ``3 * 10^5``) go direct; long runs over few states (the epidemic's
  two, GSU19 at ``10^6`` and beyond, ``n = 10^12``) keep the split path,
  and a single occupied state, which the split path serves without a draw,
  is never direct.  The collision step and the commit are shared.
* **Exact samplers, no NumPy caps.**  Hypergeometric variates use the same
  two algorithms NumPy does — explicit urn inversion when the (symmetrised)
  sample is tiny, Stadlober's HRUA ratio-of-uniforms rejection otherwise —
  but without ``Generator.hypergeometric``'s hard ``10^9`` operand limit:
  population arguments are exact in ``double`` up to ``2^53``, which is the
  engine's validated ``MAX_EXACT_N``.  This is what makes ``n = 10^12``
  runs possible at all.
* **Bit-identical floating point.**  The C source is built with
  ``-ffp-contract=off`` (no fused multiply-adds), and the mirror evaluates
  every double in the C order.  Log-factorials come from libm's ``lgamma``
  on both sides; the mirror calls it through ctypes, because CPython's
  ``math.lgamma`` is its own implementation and differs from glibc's in
  the last bit on a large share of arguments.
* **A complete table.**  The packed transition LUT holds every pair of
  the ``k`` registered states: the engine runs only on a protocol's
  closure or closed canonical states (see :mod:`repro.engine.table`), so
  every lookup finds its pair and a call applies its whole budget.
  ``seen`` (the ever-occupied byte mask) and ``counts`` are written at
  batch commit only.
* **One entry, one engine.**  ``repro_count_row`` advances one engine,
  described by a :class:`CountRow` argument block (its counts, seen mask,
  xoshiro words and LUT addresses, ``k``, budget, and ``applied``), on the
  calling thread; :func:`run_row` takes the same state as arguments.
  Independent seeds run in parallel one level up, on the sweep
  scheduler's worker processes (:mod:`repro.engine.parallel`).

The C side is built through :func:`repro.engine._ckernel.build_library` —
same cache directory, same atomic publish, same ``REPRO_NO_C_KERNEL=1``
escape hatch and silent fallback contract as the fast-batch kernel.  The
mirror ran GSU19 (closure registered) at 0.8 M interactions per second at
``n = 10^6`` and 3 M at ``10^7`` on a 2-CPU x86-64 host, about 100x below
the C kernel (``BENCH_engine.json``; those windows take the split path).
At ``n = 20,000``, where most batches take the direct path, it draws the
production pin's 10^6 interactions in about 6 s.
``tests/test_engine_count_kernel.py`` pins the two together.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from typing import Optional

import numpy as np

from repro.engine._ckernel import build_library

__all__ = [
    "CountRow",
    "load_count_kernel",
    "count_kernel_available",
    "kernel_thread_backend",
    "run_row",
    "seed_kernel_rng",
    "logfact_reserve",
]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* ------------------------------------------------------------------ */
/* xoshiro256++ (Blackman & Vigna, public domain)                      */
/* ------------------------------------------------------------------ */
static inline uint64_t xo_rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

static inline uint64_t xo_next(uint64_t *s)
{
    uint64_t result = xo_rotl(s[0] + s[3], 23) + s[0];
    uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = xo_rotl(s[3], 45);
    return result;
}

/* Uniform double in [0, 1) with 53 random bits. */
static inline double xo_double(uint64_t *s)
{
    return (double)(xo_next(s) >> 11) * (1.0 / 9007199254740992.0);
}

/* A uniform integer in [0, range), 1 <= range <= 2^53, by Lemire's
 * bounded multiply with rejection ("Fast Random Integer Generation in an
 * Interval", ACM TOMACS 2019): one xoshiro word per draw but for a
 * rejection of probability below range / 2^64. */
static inline int64_t xo_bounded(uint64_t *s, int64_t range)
{
    uint64_t r = (uint64_t)range;
    __uint128_t m = (__uint128_t)xo_next(s) * r;
    uint64_t leftover = (uint64_t)m;
    if (leftover < r) {
        const uint64_t threshold = (0 - r) % r;
        while (leftover < threshold) {
            m = (__uint128_t)xo_next(s) * r;
            leftover = (uint64_t)m;
        }
    }
    return (int64_t)(m >> 64);
}

/* ------------------------------------------------------------------ */
/* log(k!) -- table for small k, lgamma beyond                         */
/*                                                                     */
/* Every table entry is lgamma(k + 1) -- the very expression the       */
/* fallback evaluates -- so growing the covered range changes no       */
/* sampled value, only how fast HRUA's four log-factorial terms are    */
/* served.  repro_logfact_reserve() extends coverage on the heap up    */
/* to a caller-chosen bound.  The engine passes n + 1, which covers    */
/* every HRUA operand (all are <= n); past LOGFACT_RESERVE_CAP the     */
/* clamped table still covers the responder and pairing splits         */
/* (operands <= 2L <= 2*jmax), while the participant split's larger    */
/* operands keep the lgamma fallback.                                  */
/* ------------------------------------------------------------------ */
#define LOGFACT_TABLE 1024
static double logfact_table[LOGFACT_TABLE];

__attribute__((constructor)) static void logfact_setup(void)
{
    for (int i = 0; i < LOGFACT_TABLE; i++)
        logfact_table[i] = lgamma((double)i + 1.0);
}

typedef struct {
    int64_t limit;          /* entries cover [LOGFACT_TABLE, limit) */
    double values[];
} logfact_block;

static logfact_block *logfact_heap = 0;

static double logfactorial(int64_t k)
{
    if (k < LOGFACT_TABLE)
        return logfact_table[k];
    if (logfact_heap && k < logfact_heap->limit)
        return logfact_heap->values[k - LOGFACT_TABLE];
    return lgamma((double)k + 1.0);
}

/* Extend the log-factorial table to cover arguments < limit.  Growth
 * only (never shrinks); allocation failure just keeps the lgamma
 * fallback.  Bound through a GIL-holding handle (ctypes.PyDLL), so it
 * never runs beside a kernel call. */
void repro_logfact_reserve(int64_t limit)
{
    int64_t current = logfact_heap ? logfact_heap->limit : LOGFACT_TABLE;
    if (limit <= current)
        return;
    int64_t target = (limit > 2 * current) ? limit : 2 * current;
    logfact_block *grown = (logfact_block *)realloc(
        logfact_heap,
        sizeof(logfact_block) + (size_t)(target - LOGFACT_TABLE) * sizeof(double));
    if (!grown)
        return;
    for (int64_t k = current; k < target; k++)
        grown->values[k - LOGFACT_TABLE] = lgamma((double)k + 1.0);
    grown->limit = target;
    logfact_heap = grown;
}

/* ------------------------------------------------------------------ */
/* Exact hypergeometric variates                                       */
/*                                                                     */
/* Same algorithm pair as NumPy's Generator.hypergeometric (inversion  */
/* for a symmetrised sample < 10, Stadlober's HRUA otherwise), but     */
/* valid for any operands exact in double (<= 2^53) instead of NumPy's */
/* 10^9 operand cap.                                                   */
/* ------------------------------------------------------------------ */
static int64_t hyp_inversion(uint64_t *rs, int64_t good, int64_t bad,
                             int64_t sample)
{
    int64_t total = good + bad;
    int64_t computed = (sample <= total - sample) ? sample : total - sample;
    int64_t rem_good = good;
    int64_t rem_total = total;
    int64_t taken = 0;
    for (int64_t i = 0; i < computed; i++) {
        if (rem_good == 0)
            break;
        if (rem_good == rem_total) {
            taken += computed - i;
            break;
        }
        if (xo_double(rs) * (double)rem_total < (double)rem_good) {
            taken += 1;
            rem_good -= 1;
        }
        rem_total -= 1;
    }
    return (computed == sample) ? taken : good - taken;
}

static int64_t hyp_hrua(uint64_t *rs, int64_t good, int64_t bad,
                        int64_t sample)
{
    const double d1 = 1.7155277699214135; /* 2*sqrt(2/e) */
    const double d2 = 0.8989161620588987; /* 3 - 2*sqrt(3/e) */
    int64_t popsize = good + bad;
    int64_t computed = (sample <= popsize - sample) ? sample
                                                    : popsize - sample;
    int64_t mingoodbad = (good <= bad) ? good : bad;
    int64_t maxgoodbad = (good <= bad) ? bad : good;
    double p = (double)mingoodbad / (double)popsize;
    double q = (double)maxgoodbad / (double)popsize;
    double mu = (double)computed * p;
    double a = mu + 0.5;
    double var = ((double)(popsize - computed) * (double)computed * p * q
                  / ((double)popsize - 1.0));
    double c = sqrt(var + 0.5);
    double h = d1 * c + d2;
    int64_t m = (int64_t)floor(
        (double)(computed + 1)
        * ((double)(mingoodbad + 1) / ((double)popsize + 2.0)));
    double g = (logfactorial(m)
                + logfactorial(mingoodbad - m)
                + logfactorial(computed - m)
                + logfactorial(maxgoodbad - computed + m));
    double bound = (double)(((computed < mingoodbad) ? computed
                                                     : mingoodbad) + 1);
    double a16 = floor(a + 16.0 * c);
    if (a16 < bound)
        bound = a16;
    int64_t k;
    while (1) {
        double u = xo_double(rs);
        double v = xo_double(rs);
        if (u <= 0.0)
            continue; /* avoid 0/0 -> NaN at the (2^-53) edge */
        double x = a + h * (v - 0.5) / u;
        if (x < 0.0 || x >= bound)
            continue;
        k = (int64_t)floor(x);
        double gp = (logfactorial(k)
                     + logfactorial(mingoodbad - k)
                     + logfactorial(computed - k)
                     + logfactorial(maxgoodbad - computed + k));
        double t = g - gp;
        if ((u * (4.0 - u) - 3.0) <= t)
            break; /* fast acceptance */
        if (u * (u - t) >= 1.0)
            continue; /* fast rejection */
        if (2.0 * log(u) <= t)
            break;
    }
    /* Undo the symmetry transformations. */
    if (good > bad)
        k = computed - k;
    if (computed < sample)
        k = good - k;
    return k;
}

static int64_t hyp_draw(uint64_t *rs, int64_t good, int64_t bad,
                        int64_t sample)
{
    if (good <= 0)
        return 0;
    if (bad <= 0)
        return sample;
    if (sample >= 10 && good + bad - sample >= 10)
        return hyp_hrua(rs, good, bad, sample);
    return hyp_inversion(rs, good, bad, sample);
}

/* Draw a state id with probability proportional to
 * weights[id] - (sub ? sub[id] : 0), minus one agent at `exclude`
 * (ordered-pair second member without replacement).  One uniform; the
 * cumulative walk visits only the `ids` list, in its order (the mirror's
 * _pick_state walks the same ids in the same order). */
static int64_t pick_state(uint64_t *rs, const int64_t *weights,
                          const int64_t *sub, const int64_t *ids,
                          int64_t nids, int64_t total, int64_t exclude)
{
    double target = xo_double(rs) * (double)total;
    double acc = 0.0;
    int64_t last = -1;
    for (int64_t idx = 0; idx < nids; idx++) {
        int64_t sid = ids[idx];
        int64_t w = weights[sid] - (sub ? sub[sid] : 0);
        if (sid == exclude)
            w -= 1;
        if (w <= 0)
            continue;
        last = sid;
        acc += (double)w;
        if (target < acc)
            return sid;
    }
    return last; /* float round-off guard */
}

/* The batch path: one integer rule of the run length and the occupied
 * frontier, which the mirror's _direct_batch evaluates alike.  The direct
 * path makes 2L picks of O(log nocc) each.  The split path makes one
 * hypergeometric draw per occupied state but the last (which takes the
 * rest) and then the pairing rows, so it pays off only when a long run
 * lands on few states; with one occupied state it draws nothing. */
#define DIRECT_PER_STATE 4

static inline int direct_batch(int64_t length, int64_t nocc)
{
    return length <= DIRECT_PER_STATE * (nocc - 1);
}

/* Take one agent out of the Fenwick tree over occupied positions:
 * `tree[i - 1]` is node i of a 1-based tree over `size` positions, and
 * `top` is the largest power of two <= size.  Returns the first position
 * whose running weight exceeds `x` (0 <= x < total weight) and removes
 * one unit of its weight.  The nodes the descent does not step past are
 * exactly the nodes whose range holds that position, so the descent
 * removes the unit on its way down.  Each step's take is a data-dependent
 * coin flip, written as a select rather than a branch. */
static int64_t fenwick_take(int64_t *tree, int64_t size, int64_t top,
                            int64_t x)
{
    int64_t pos = 0;
    for (int64_t step = top; step > 0; step >>= 1) {
        int64_t next = pos + step;
        if (next > size)
            continue;
        int64_t weight = tree[next - 1];
        int take = weight <= x;
        pos += take ? step : 0;
        x -= take ? weight : 0;
        tree[next - 1] = weight - !take;
    }
    return pos;
}

/* Add `mult` applications of a packed transition's two outputs to the
 * post-state multiset, listing each output id on its first arrival. */
static inline void use_pair(int64_t *used, int64_t *used_occ, int64_t *nused,
                            int64_t packed, int64_t mult)
{
    int64_t new_r = packed >> 32;
    int64_t new_i = packed & 0xFFFFFFFF;
    if (used[new_r] == 0)
        used_occ[(*nused)++] = new_r;
    used[new_r] += mult;
    if (used[new_i] == 0)
        used_occ[(*nused)++] = new_i;
    used[new_i] += mult;
}

/* Sorted-insert `sid` into the ascending candidate list (no-op when
 * already present).  The list is the occupied-frontier superset the
 * per-batch scan walks instead of all k ids; membership only ever grows
 * within one call, so a binary search plus a short memmove keeps it
 * exact and ascending. */
static void cand_insert(int64_t *cand, int64_t *ncand, int64_t sid)
{
    int64_t lo = 0, hi = *ncand;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (cand[mid] < sid)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < *ncand && cand[lo] == sid)
        return;
    for (int64_t i = *ncand; i > lo; i--)
        cand[i] = cand[i - 1];
    cand[lo] = sid;
    *ncand += 1;
}

/* One engine's kernel call: its state buffers, LUT snapshot and budget
 * in, what the call did out.  The Python side keeps one per
 * engine (CountRow, a ctypes mirror of this layout) and rewrites a pointer
 * field only when that buffer is reallocated, so entering the kernel costs
 * no per-call address lookups.
 *
 * counts     : per-state-id agent counts, length >= k (mutated at batch
 *              commits only)
 * seen       : byte mask over state ids, length >= k; outputs of every
 *              committed transition are marked 1
 * rng        : 4 xoshiro256++ state words (mutated)
 * lut        : flattened (cap x cap) packed transition table; entry
 *              r*cap + i holds (new_r << 32) | new_i, for every pair of the
 *              k states (the table is complete)
 * k          : number of registered state ids (encoder length)
 * cap        : side length of the lookup table
 * budget     : interaction budget for this call; <= 0 does nothing
 * applied    : out, interactions applied (the whole budget)
 */
typedef struct {
    int64_t *counts;
    uint8_t *seen;
    uint64_t *rng;
    const int64_t *lut;
    int64_t k;
    int64_t cap;
    int64_t budget;
    int64_t applied;
} count_row;

/* Advance one engine's count-space batched simulation by
 * row->budget interactions.
 *
 * n            : population size
 * neg_survival : -P(L >= j+1) ascending, length jmax (see CountBatchEngine)
 * jmax         : survival-curve truncation length
 * sk           : scratch stride, >= row->k
 * scratch      : 11*sk int64 workspace.  The five weight regions (first
 *                5*sk entries) must be all-zero on entry and are restored
 *                to zero on exit; the four id-list regions, the candidate
 *                region and the initiator-pool region (the direct path's
 *                Fenwick tree: nocc <= k nodes) are plain scratch
 *
 * The occupied scan is served from a sorted candidate list built by one
 * full k-scan at call entry and extended at every commit with the states
 * that received agents while empty (a state with agents is a candidate
 * already, so it skips the list's search).  Candidates whose count
 * dropped to zero are filtered per batch by the same counts[sid] > 0 test
 * the full scan applied, so the frontier (and with it every draw) is
 * bit-identical while per-batch scan cost follows the frontier, not k.
 */
static void run_row(count_row *row, int64_t n, const double *neg_survival,
                    int64_t jmax, int64_t sk, int64_t *scratch)
{
    int64_t *counts = row->counts;
    uint8_t *seen = row->seen;
    uint64_t *rng = row->rng;
    const int64_t *lut = row->lut;
    int64_t k = row->k;
    int64_t cap = row->cap;
    int64_t budget = row->budget;
    /* Scratch regions are laid out at stride `sk` (>= k); the id-list
     * regions (plain scratch, no zero-on-exit contract) must never overlap
     * the weight regions (which require zeros at entry). */
    int64_t *involved = scratch;
    int64_t *responders = scratch + sk;
    int64_t *remaining_i = scratch + 2 * sk;
    int64_t *pair_row = scratch + 3 * sk;
    int64_t *used = scratch + 4 * sk;
    int64_t *occ = scratch + 5 * sk;
    int64_t *inv_occ = scratch + 6 * sk;
    int64_t *resp_occ = scratch + 7 * sk;
    int64_t *used_occ = scratch + 8 * sk;
    int64_t *cand = scratch + 9 * sk;
    int64_t *pool = scratch + 10 * sk;

    int64_t ncand = 0;
    for (int64_t sid = 0; sid < k; sid++)
        if (counts[sid] > 0)
            cand[ncand++] = sid;

    int64_t applied = 0;

    while (applied < budget) {
        /* 1. Collision-free run length by survival-curve inversion
         * (matches np.searchsorted(neg_survival, -u, side="right")). */
        double neg_u = -xo_double(rng);
        int64_t lo = 0, hi = jmax;
        while (lo < hi) {
            int64_t mid = (lo + hi) >> 1;
            if (neg_survival[mid] <= neg_u)
                lo = mid + 1;
            else
                hi = mid;
        }
        int64_t length = (lo < 1) ? 1 : lo;
        int collide = length < jmax;
        int64_t remaining = budget - applied;
        if (length >= remaining) {
            length = remaining;
            collide = 0;
        }

        /* Occupied frontier (ascending ids, like np.flatnonzero),
         * filtered from the sorted candidate list. */
        int64_t nocc = 0;
        for (int64_t ci = 0; ci < ncand; ci++) {
            int64_t sid = cand[ci];
            if (counts[sid] > 0)
                occ[nocc++] = sid;
        }

        int64_t ninv = 0;
        int64_t nused = 0;
        if (direct_batch(length, nocc)) {
            /* 2-3, direct path.  The 2L participants as ordered picks
             * without replacement: each is one bounded integer below the
             * fresh count, mapped through a Fenwick tree over the occ
             * positions (weights counts - involved) to its state.  Picks
             * 2j and 2j+1 are the j-th (responder, initiator) pair, which
             * goes straight through the LUT.  The tree lives in the pool
             * region, which this path does not otherwise use. */
            int64_t *tree = pool;
            for (int64_t idx = 0; idx < nocc; idx++)
                tree[idx] = counts[occ[idx]];
            for (int64_t node = 1; node <= nocc; node++) {
                int64_t parent = node + (node & -node);
                if (parent <= nocc)
                    tree[parent - 1] += tree[node - 1];
            }
            int64_t top = 1;
            while (2 * top <= nocc)
                top *= 2;
            int64_t fresh = n;
            for (int64_t j = 0; j < length; j++) {
                int64_t pair[2];
                for (int side = 0; side < 2; side++) {
                    int64_t x = xo_bounded(rng, fresh);
                    int64_t sid = occ[fenwick_take(tree, nocc, top, x)];
                    fresh -= 1;
                    if (involved[sid] == 0)
                        inv_occ[ninv++] = sid;
                    involved[sid] += 1;
                    pair[side] = sid;
                }
                use_pair(used, used_occ, &nused, lut[pair[0] * cap + pair[1]], 1);
            }
        } else {
            /* 2, split path.  Participant multiset: involved ~ MVH(counts,
             * 2L), by sequential conditional hypergeometric splits. */
            int64_t m = 2 * length;
            int64_t total = n;
            for (int64_t idx = 0; idx < nocc && m > 0; idx++) {
                int64_t sid = occ[idx];
                int64_t color = counts[sid];
                int64_t rest = total - color;
                int64_t drawn =
                    (rest == 0) ? m : hyp_draw(rng, color, rest, m);
                if (drawn > 0) {
                    involved[sid] = drawn;
                    inv_occ[ninv++] = sid;
                    m -= drawn;
                }
                total = rest;
            }

            /* Responder split: responders ~ MVH(involved, L). */
            int64_t nresp = 0;
            m = length;
            total = 2 * length;
            for (int64_t idx = 0; idx < ninv && m > 0; idx++) {
                int64_t sid = inv_occ[idx];
                int64_t color = involved[sid];
                int64_t rest = total - color;
                int64_t drawn =
                    (rest == 0) ? m : hyp_draw(rng, color, rest, m);
                if (drawn > 0) {
                    responders[sid] = drawn;
                    resp_occ[nresp++] = sid;
                    m -= drawn;
                }
                total = rest;
            }

            /* Initiator pool: the involved states with initiators left, in
             * inv_occ order.  Rows drop the states they deplete, so each
             * row walks only states that can still draw. */
            int64_t npool = 0;
            for (int64_t idx = 0; idx < ninv; idx++) {
                int64_t sid = inv_occ[idx];
                remaining_i[sid] = involved[sid] - responders[sid];
                if (remaining_i[sid] > 0)
                    pool[npool++] = sid;
            }
            int64_t rem_total = length;

            /* 3. Pairing rows -> post-state multiset `used` via the LUT.
             * A row's draw stops once its slots are filled; `reach` is how
             * far into the pool it got.  States outside the pool have no
             * initiators left and entries past `reach` drew nothing, so
             * the walk over pool[0, reach) meets every nonzero cell of the
             * row in inv_occ order: used_occ's order does not depend on the
             * compaction. */
            for (int64_t ridx = 0; ridx < nresp; ridx++) {
                int64_t a = resp_occ[ridx];
                int64_t slots = responders[a];
                const int64_t *rowp;
                int row_is_tmp = 0;
                int64_t reach = npool;
                if (ridx == nresp - 1) {
                    /* Final responder state takes the whole remaining
                     * initiator pool -- deterministic, no draw. */
                    rowp = remaining_i;
                } else {
                    m = slots;
                    total = rem_total;
                    for (reach = 0; reach < npool && m > 0; reach++) {
                        int64_t sid = pool[reach];
                        int64_t color = remaining_i[sid];
                        int64_t rest = total - color;
                        int64_t drawn =
                            (rest == 0) ? m : hyp_draw(rng, color, rest, m);
                        pair_row[sid] = drawn;
                        m -= drawn;
                        total = rest;
                    }
                    rowp = pair_row;
                    row_is_tmp = 1;
                }
                const int64_t *lut_row = lut + a * cap;
                for (int64_t idx = 0; idx < reach; idx++) {
                    int64_t b = pool[idx];
                    int64_t mult = rowp[b];
                    if (mult > 0)
                        use_pair(used, used_occ, &nused, lut_row[b], mult);
                }
                if (row_is_tmp) {
                    /* Zero the row and drop the states it depleted; the
                     * pool past `reach` is untouched and shifts down
                     * intact. */
                    int64_t kept = 0;
                    for (int64_t idx = 0; idx < reach; idx++) {
                        int64_t sid = pool[idx];
                        remaining_i[sid] -= pair_row[sid];
                        pair_row[sid] = 0;
                        if (remaining_i[sid] > 0)
                            pool[kept++] = sid;
                    }
                    if (kept < reach) {
                        memmove(pool + kept, pool + reach,
                                (size_t)(npool - reach) * sizeof(int64_t));
                        npool -= reach - kept;
                    }
                    rem_total -= slots;
                }
            }
        }

        /* 4. Colliding interaction, sampled *before* the commit: the
         * fresh pool's weights are counts - involved, the agents no
         * interaction of this batch has touched. */
        int64_t coll_or = -1, coll_oi = -1, coll_nr = -1, coll_ni = -1;
        if (collide) {
            int64_t used_total = 2 * length;
            int64_t fresh_total = n - used_total;
            double wuf = (double)used_total * (double)fresh_total;
            double wuu = (double)used_total * ((double)used_total - 1.0);
            double pick = xo_double(rng) * (2.0 * wuf + wuu);
            if (pick < wuf) {
                coll_or = pick_state(rng, used, 0, used_occ, nused,
                                     used_total, -1);
                coll_oi = pick_state(rng, counts, involved, occ, nocc,
                                     fresh_total, -1);
            } else if (pick < 2.0 * wuf) {
                coll_or = pick_state(rng, counts, involved, occ, nocc,
                                     fresh_total, -1);
                coll_oi = pick_state(rng, used, 0, used_occ, nused,
                                     used_total, -1);
            } else {
                coll_or = pick_state(rng, used, 0, used_occ, nused,
                                     used_total, -1);
                coll_oi = pick_state(rng, used, 0, used_occ, nused,
                                     used_total - 1, coll_or);
            }
            int64_t packed = lut[coll_or * cap + coll_oi];
            coll_nr = packed >> 32;
            coll_ni = packed & 0xFFFFFFFF;
        }

        /* 5. Commit. */
        for (int64_t idx = 0; idx < ninv; idx++) {
            int64_t sid = inv_occ[idx];
            counts[sid] -= involved[sid];
            involved[sid] = 0;
            responders[sid] = 0;
            remaining_i[sid] = 0;
        }
        for (int64_t idx = 0; idx < nused; idx++) {
            int64_t sid = used_occ[idx];
            if (counts[sid] == 0) /* states with agents are candidates */
                cand_insert(cand, &ncand, sid);
            counts[sid] += used[sid];
            used[sid] = 0;
            seen[sid] = 1;
        }
        applied += length;
        if (collide) {
            counts[coll_or] -= 1;
            if (counts[coll_nr] == 0)
                cand_insert(cand, &ncand, coll_nr);
            counts[coll_nr] += 1;
            counts[coll_oi] -= 1;
            if (counts[coll_ni] == 0)
                cand_insert(cand, &ncand, coll_ni);
            counts[coll_ni] += 1;
            seen[coll_nr] = 1;
            seen[coll_ni] = 1;
            applied += 1;
        }
    }
    row->applied = applied;
}

/* The entry point: advance one engine by row->budget interactions (see
 * run_row).
 *
 * scratch : 11*row->k int64 workspace obeying run_row's zero contract on
 *           entry and exit
 */
void repro_count_row(
    count_row *row,
    int64_t n,
    const double *neg_survival,
    int64_t jmax,
    int64_t *scratch)
{
    row->applied = 0;
    if (row->budget > 0)
        run_row(row, n, neg_survival, jmax, row->k, scratch);
}
"""

_kernel: Optional[ctypes.CFUNCTYPE] = None
_logfact_reserve: Optional[ctypes.CFUNCTYPE] = None
_load_attempted = False

_MASK64 = (1 << 64) - 1


class CountRow(ctypes.Structure):
    """One engine's argument block for the kernel entry (the C ``count_row``).

    The pointer fields address NumPy buffers the caller keeps alive; the
    caller sets ``k``, ``cap`` and ``budget`` and the kernel writes
    ``applied``.
    """

    _fields_ = [
        ("counts", ctypes.c_void_p),
        ("seen", ctypes.c_void_p),
        ("rng", ctypes.c_void_p),
        ("lut", ctypes.c_void_p),
        ("k", ctypes.c_int64),
        ("cap", ctypes.c_int64),
        ("budget", ctypes.c_int64),
        ("applied", ctypes.c_int64),
    ]


# ----------------------------------------------------------------------
# The pure-Python implementation: run_row, statement for statement
# ----------------------------------------------------------------------
#
# Every double below is computed in the order and precision the C source
# computes it: ints are converted to float exactly where C casts (all
# operands are <= 2^53, so each conversion is exact), products of counts
# are float products, and comparisons against ints are exact in both
# languages.  Log-factorials come from libm's lgamma, the function the
# kernel calls: CPython's math.lgamma is its own implementation and differs
# from glibc's in the last bit on a large share of arguments.  math.log
# and math.sqrt call libm (or are correctly rounded), so they agree.

_UNIT = 1.0 / 9007199254740992.0  # 2^-53
_HRUA_D1 = 1.7155277699214135  # 2*sqrt(2/e)
_HRUA_D2 = 0.8989161620588987  # 3 - 2*sqrt(3/e)


def _libm_lgamma():
    """libm's ``lgamma`` from the process's global symbols.  Where those
    cannot be searched (Windows) ``math.lgamma`` stands in, and the mirror
    then need not match the C stream bit for bit."""
    try:
        function = ctypes.CDLL(None).lgamma
    except (OSError, AttributeError, TypeError):  # pragma: no cover
        return math.lgamma
    function.restype = ctypes.c_double
    function.argtypes = [ctypes.c_double]
    return function


_lgamma = _libm_lgamma()


@functools.lru_cache(maxsize=1 << 16)
def _logfactorial(k: int) -> float:
    return _lgamma(k + 1.0)


def _next(s: list) -> int:
    """``xo_next``: advance the four xoshiro256++ words in ``s`` and return
    the 64-bit output."""
    s0, s1, s2, s3 = s
    x = (s0 + s3) & _MASK64
    result = ((((x << 23) & _MASK64) | (x >> 41)) + s0) & _MASK64
    s2 ^= s0
    s3 ^= s1
    s[0] = s0 ^ s3
    s[1] = s1 ^ s2
    s[2] = s2 ^ ((s1 << 17) & _MASK64)
    s[3] = ((s3 << 45) & _MASK64) | (s3 >> 19)
    return result


def _uniform(s: list) -> float:
    """``xo_double``: a double in [0, 1) with 53 random bits."""
    return (_next(s) >> 11) * _UNIT


def _bounded(s: list, bound: int) -> int:
    """``xo_bounded``: Lemire's uniform integer in ``[0, bound)``."""
    m = _next(s) * bound
    leftover = m & _MASK64
    if leftover < bound:
        threshold = ((1 << 64) - bound) % bound
        while leftover < threshold:
            m = _next(s) * bound
            leftover = m & _MASK64
    return m >> 64


def _hyp_inversion(s: list, good: int, bad: int, sample: int) -> int:
    total = good + bad
    computed = sample if sample <= total - sample else total - sample
    rem_good = good
    rem_total = total
    taken = 0
    for i in range(computed):
        if rem_good == 0:
            break
        if rem_good == rem_total:
            taken += computed - i
            break
        if _uniform(s) * rem_total < rem_good:
            taken += 1
            rem_good -= 1
        rem_total -= 1
    return taken if computed == sample else good - taken


def _hyp_hrua(s: list, good: int, bad: int, sample: int) -> int:
    uniform = _uniform
    logfactorial = _logfactorial
    floor = math.floor
    popsize = good + bad
    computed = sample if sample <= popsize - sample else popsize - sample
    mingoodbad = good if good <= bad else bad
    maxgoodbad = bad if good <= bad else good
    p = float(mingoodbad) / popsize
    q = float(maxgoodbad) / popsize
    a = computed * p + 0.5
    var = float(popsize - computed) * computed * p * q / (popsize - 1.0)
    c = math.sqrt(var + 0.5)
    h = _HRUA_D1 * c + _HRUA_D2
    m = floor((computed + 1) * ((mingoodbad + 1) / (popsize + 2.0)))
    shift = maxgoodbad - computed
    g = (
        logfactorial(m)
        + logfactorial(mingoodbad - m)
        + logfactorial(computed - m)
        + logfactorial(shift + m)
    )
    bound = (computed if computed < mingoodbad else mingoodbad) + 1
    a16 = floor(a + 16.0 * c)
    if a16 < bound:
        bound = a16
    while True:
        u = uniform(s)
        v = uniform(s)
        if u <= 0.0:
            continue
        x = a + h * (v - 0.5) / u
        if x < 0.0 or x >= bound:
            continue
        k = floor(x)
        t = g - (
            logfactorial(k)
            + logfactorial(mingoodbad - k)
            + logfactorial(computed - k)
            + logfactorial(shift + k)
        )
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


def _hyp_draw(s: list, good: int, bad: int, sample: int) -> int:
    if good <= 0:
        return 0
    if bad <= 0:
        return sample
    if sample >= 10 and good + bad - sample >= 10:
        return _hyp_hrua(s, good, bad, sample)
    return _hyp_inversion(s, good, bad, sample)


def _pick_state(s: list, weighted, total: int, exclude: int = -1) -> int:
    """``pick_state`` over ``(id, weight)`` pairs in the kernel's walk order."""
    target = _uniform(s) * total
    acc = 0.0
    last = -1
    for sid, weight in weighted:
        if sid == exclude:
            weight -= 1
        if weight <= 0:
            continue
        last = sid
        acc += weight
        if target < acc:
            return sid
    return last


#: ``DIRECT_PER_STATE``: a batch takes the direct path when its run length
#: is at most this many interactions per occupied state beyond the first.
_DIRECT_PER_STATE = 4


def _direct_batch(length: int, nocc: int) -> bool:
    """``direct_batch``: the batch path rule, the C expression."""
    return length <= _DIRECT_PER_STATE * (nocc - 1)


def _fenwick(weights: list) -> list:
    """A Fenwick tree over ``weights``, node ``i`` (1-based) at ``i - 1``."""
    tree = list(weights)
    size = len(tree)
    for node in range(1, size + 1):
        parent = node + (node & -node)
        if parent <= size:
            tree[parent - 1] += tree[node - 1]
    return tree


def _fenwick_take(tree: list, top: int, x: int) -> int:
    """``fenwick_take``: the first position whose running weight exceeds
    ``x``, with one unit of its weight removed on the way down."""
    size = len(tree)
    pos = 0
    step = top
    while step:
        nxt = pos + step
        if nxt <= size:
            weight = tree[nxt - 1]
            if weight <= x:
                pos = nxt
                x -= weight
            else:
                tree[nxt - 1] = weight - 1
        step >>= 1
    return pos


def _use_pair(used: dict, packed: int, mult: int) -> None:
    """``use_pair``: ``mult`` applications of a packed transition into the
    post-state multiset, whose insertion order is the kernel's
    ``used_occ``."""
    new_r = packed >> 32
    new_i = packed & 0xFFFFFFFF
    used[new_r] = used.get(new_r, 0) + mult
    used[new_i] = used.get(new_i, 0) + mult


def _split(s: list, weighted, sample: int, total: int) -> list:
    """A multivariate hypergeometric draw of ``sample`` from ``(id, weight)``
    pairs (weights summing to ``total``) by sequential conditional splits.

    Returns ``(id, drawn)`` for every visited id, zero draws included; the
    walk stops once the sample is used up, as the kernel's loops do.
    """
    drawn_by = []
    m = sample
    for sid, color in weighted:
        if m <= 0:
            break
        rest = total - color
        drawn = m if rest == 0 else _hyp_draw(s, color, rest, m)
        drawn_by.append((sid, drawn))
        m -= drawn
        total = rest
    return drawn_by


def _pair_rows(s: list, responders: dict, remaining_i: dict, pairs: int):
    """Yield ``(responder id, [(initiator id, multiplicity), ...])`` rows.

    Each responder state's slots are split over the initiator pool, the
    states with initiators left in ``remaining_i`` order; the last row takes
    the rest of the pool without a draw.  A row drops the states it
    depletes, and the pool past the row's reach keeps its order.  A row's
    draws happen when it is requested, so a consumer that stops early
    stops the draws with it.
    """
    pool = [sid for sid, left in remaining_i.items() if left > 0]
    final = len(responders) - 1
    for ridx, (a, slots) in enumerate(responders.items()):
        if ridx == final:
            yield a, [(b, remaining_i[b]) for b in pool]
            return
        row = _split(s, ((b, remaining_i[b]) for b in pool), slots, pairs)
        yield a, row
        for b, drawn in row:
            remaining_i[b] -= drawn
        reach = len(row)
        pool = [b for b in pool[:reach] if remaining_i[b] > 0] + pool[reach:]
        pairs -= slots


def run_row(counts, seen, rng, lut, k, cap, budget, n, neg_survival, jmax):
    """``repro_count_row`` in Python: the same arguments, the same stream.

    ``counts`` (int64, length >= ``k``), ``seen`` (uint8) and ``rng`` (the
    four uint64 xoshiro words) are updated in place exactly as the kernel
    updates them; ``lut`` is the flat packed table of side ``cap``, complete
    over the ``k`` states.  Returns ``applied``.  A scratch region the kernel
    indexes by state id is a dict here, whose insertion order is the id
    list the kernel keeps beside it (``inv_occ``, ``resp_occ``,
    ``used_occ``).
    """
    if budget <= 0:
        return 0
    s = [int(word) for word in rng]
    count = counts[:k].tolist()
    packed_at = lut.item
    cand = {sid for sid in range(k) if count[sid] > 0}
    ordered = sorted(cand)
    touched = set()
    applied = 0
    while applied < budget:
        # 1. Run length by survival-curve inversion.
        length = int(np.searchsorted(neg_survival[:jmax], -_uniform(s), side="right"))
        length = max(1, length)
        collide = length < jmax
        if length >= budget - applied:
            length = budget - applied
            collide = False
        occ = [sid for sid in ordered if count[sid] > 0]
        used = {}
        if _direct_batch(length, len(occ)):
            # 2-3, direct path: 2L ordered picks, pairs straight to the LUT.
            tree = _fenwick([count[sid] for sid in occ])
            top = 1 << (len(occ).bit_length() - 1)
            fresh = n
            involved = {}
            for _ in range(length):
                a = occ[_fenwick_take(tree, top, _bounded(s, fresh))]
                involved[a] = involved.get(a, 0) + 1
                b = occ[_fenwick_take(tree, top, _bounded(s, fresh - 1))]
                involved[b] = involved.get(b, 0) + 1
                fresh -= 2
                _use_pair(used, packed_at(a * cap + b), 1)
        else:
            # 2, split path: participants, then responders among them.
            weighted = ((sid, count[sid]) for sid in occ)
            involved = {sid: h for sid, h in _split(s, weighted, 2 * length, n) if h}
            split = _split(s, involved.items(), length, 2 * length)
            responders = {sid: r for sid, r in split if r}
            remaining_i = {
                sid: h - responders.get(sid, 0) for sid, h in involved.items()
            }

            # 3. Pairing rows through the LUT into the post-state multiset.
            for a, row in _pair_rows(s, responders, remaining_i, length):
                base = a * cap
                for b, mult in row:
                    if mult > 0:
                        _use_pair(used, packed_at(base + b), mult)

        # 4. The colliding interaction, drawn before the commit.
        if collide:
            used_total = 2 * length
            fresh_total = n - used_total
            fresh = ((sid, count[sid] - involved.get(sid, 0)) for sid in occ)
            wuf = float(used_total) * fresh_total
            wuu = float(used_total) * (used_total - 1.0)
            pick = _uniform(s) * (2.0 * wuf + wuu)
            if pick < wuf:
                coll_or = _pick_state(s, used.items(), used_total)
                coll_oi = _pick_state(s, fresh, fresh_total)
            elif pick < 2.0 * wuf:
                coll_or = _pick_state(s, fresh, fresh_total)
                coll_oi = _pick_state(s, used.items(), used_total)
            else:
                coll_or = _pick_state(s, used.items(), used_total)
                coll_oi = _pick_state(s, used.items(), used_total - 1, coll_or)
            packed = packed_at(coll_or * cap + coll_oi)
            coll_nr = packed >> 32
            coll_ni = packed & 0xFFFFFFFF

        # 5. Commit.
        for sid, h in involved.items():
            count[sid] -= h
        for sid, gained in used.items():
            count[sid] += gained
        landed = set(used)
        applied += length
        if collide:
            count[coll_or] -= 1
            count[coll_nr] += 1
            count[coll_oi] -= 1
            count[coll_ni] += 1
            landed.add(coll_nr)
            landed.add(coll_ni)
            applied += 1
        touched |= landed
        if not landed <= cand:
            cand |= landed
            ordered = sorted(cand)
    counts[:k] = count
    if touched:
        seen[list(touched)] = 1
    rng[:] = s
    return applied


def seed_kernel_rng(rng) -> np.ndarray:
    """Four xoshiro256++ state words derived from a NumPy generator.

    One 64-bit draw from ``rng`` is expanded through SplitMix64 (the
    seeding scheme the xoshiro authors recommend), so the kernel stream is
    a deterministic function of the engine seed and the NumPy stream
    advances by exactly one draw.  Every count-batch engine seeds this way,
    whether the compiled kernel or its Python mirror runs the stream.
    """
    x = int(rng.integers(0, 2**64, dtype=np.uint64))
    words = np.empty(4, dtype=np.uint64)
    for i in range(4):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        words[i] = (z ^ (z >> 31)) & _MASK64
    if not words.any():  # pragma: no cover - probability 2^-256
        words[0] = 1
    return words


def load_count_kernel():
    """The compiled kernel entry (``repro_count_row``), or ``None``.

    Same contract as :func:`repro.engine._ckernel.load_kernel`: lazy, cached,
    never raises, honours ``REPRO_NO_C_KERNEL=1``.
    """
    global _load_attempted
    if not _load_attempted:
        _load_attempted = True
        if not os.environ.get("REPRO_NO_C_KERNEL"):
            try:
                _bind(build_library(_SOURCE, "repro_count_kernel"))
            except Exception:  # no compiler, or a library without these symbols
                pass
    return _kernel


def _bind(path) -> None:
    """Publish the entry points of the library at ``path``; raises before
    publishing any when the library lacks a symbol.

    The row kernel is bound through ``CDLL``, which drops the GIL for the
    call.  ``repro_logfact_reserve`` grows the library's log-factorial
    heap, which the kernel reads, so it is bound through ``PyDLL`` on the
    same library: the call holds the GIL and stays serial.  Split from
    the loader so a build with other flags (a sanitizer build, say) can be
    swapped in: ``_bind(path)`` then mark the load attempted.
    """
    global _kernel, _logfact_reserve
    function = ctypes.CDLL(str(path)).repro_count_row
    function.restype = None
    function.argtypes = [
        ctypes.c_void_p,  # row: CountRow address
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # neg_survival
        ctypes.c_int64,  # jmax
        ctypes.c_void_p,  # scratch (11 * k)
    ]
    reserve = ctypes.PyDLL(str(path)).repro_logfact_reserve
    reserve.restype = None
    reserve.argtypes = [ctypes.c_int64]
    _kernel = function
    _logfact_reserve = reserve


def kernel_thread_backend() -> Optional[str]:
    """``"serial"`` once the kernel is loaded, ``None`` when unavailable.

    The kernel runs every call on the calling thread; parallel seeds come
    from the sweep scheduler's worker pool.  Kept because run stamps
    record it.
    """
    return "serial" if load_count_kernel() is not None else None


#: The heap-extended log-factorial table is capped here (16 MB of
#: doubles).  An engine reserves ``n + 1`` entries, clamped to the cap, so
#: below it every log-factorial its draws need comes from the table; above
#: it the table still covers the batch-bounded operands (``<= 2 * jmax``)
#: for every ``n`` up to ~1.4 * 10^10.  Arguments past the table keep the
#: (bit-identical) lgamma fallback.
LOGFACT_RESERVE_CAP = 1 << 21


def logfact_reserve(limit: int) -> None:
    """Extend the kernel's log-factorial table to cover ``limit`` entries.

    Every entry is ``lgamma(k + 1)`` — exactly the fallback expression —
    so reserving changes no sampled value on any path; it only removes the
    per-draw lgamma evaluations from the HRUA splits whose operands stay
    below ``limit``.  No-op when the kernel is unavailable; the limit is
    clamped to :data:`LOGFACT_RESERVE_CAP`.
    """
    load_count_kernel()
    if _logfact_reserve is not None and limit > 0:
        _logfact_reserve(min(int(limit), LOGFACT_RESERVE_CAP))


def count_kernel_available() -> bool:
    """Whether the compiled count-batch hot path can be used here."""
    return load_count_kernel() is not None
