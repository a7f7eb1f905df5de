"""Optional C hot-path kernel for the count-space batched engine.

:class:`~repro.engine.count_batch.CountBatchEngine` samples collision-free
runs configuration-level: one survival-curve inversion for the run length,
a cascade of hypergeometric splits for the participant/responder/pairing
multisets, and a weighted-category draw for the colliding interaction.  At
``n >= 3 * 10^7`` it is the *forced* engine, yet every one of those draws
used to cross the NumPy scalar-call boundary (~1-2 us each), capping the
GSU19 headline regime at a few million interactions per second.  The kernel
below executes whole batches — run length, all hypergeometric splits, the
transition-table application and the collision — in one C call against the
shared packed LUT, so per-batch cost drops to the raw sampling arithmetic.

Design notes
============

* **Own RNG stream.**  The kernel runs xoshiro256++ (public-domain
  Blackman/Vigna generator), seeded once from the engine's NumPy generator
  via SplitMix64 (:func:`seed_kernel_rng`).  The four 64-bit state words
  live in a NumPy array owned by the engine, so checkpoint/restore is
  byte-exact through the kernel path.  The kernel path therefore consumes
  randomness differently from the Python path — equality between the two
  holds *in distribution* (pinned by the KS cross-engine suite), exactly
  like the CountBatch/Sequential relationship; each path carries its own
  trajectory-digest pins.
* **Exact samplers, no NumPy caps.**  Hypergeometric variates use the same
  two algorithms NumPy does — explicit urn inversion when the (symmetrised)
  sample is tiny, Stadlober's HRUA ratio-of-uniforms rejection otherwise —
  but without ``Generator.hypergeometric``'s hard ``10^9`` operand limit:
  population arguments are exact in ``double`` up to ``2^53``, which is the
  engine's validated ``MAX_EXACT_N``.  This is what makes ``n = 10^12``
  runs possible at all.
* **Miss-restart.**  The packed transition LUT may lack a pair (lazy
  compilation).  The kernel snapshots its RNG words at every batch start;
  on a miss it restores them, re-zeroes its scratch writes and reports the
  missing ``(responder, initiator)`` ids.  The caller compiles the pair in
  Python (possibly growing the encoder) and re-enters; the batch is then
  redrawn identically, so a miss costs one wasted batch of arithmetic and
  nothing else.  ``seen`` (the ever-occupied byte mask) and ``counts`` are
  only written at batch commit, never mid-batch, so a restarted batch
  leaves no trace.  A table that adopted its protocol's closure-compiled
  LUT (GSU19 at count-space scale, see :mod:`repro.engine.table`) has
  every pair from the start, so those runs never take this path.
* **One entry, one engine.**  ``repro_count_row`` advances one engine,
  described by a :class:`CountRow` argument block (its counts, seen mask,
  xoshiro words and LUT addresses, ``k``, budget, and the outputs), on the
  calling thread.  Independent seeds run in parallel one level up, on the
  sweep scheduler's worker processes (:mod:`repro.engine.parallel`);
  ctypes drops the GIL for the call, so threads calling it overlap.

Built through :func:`repro.engine._ckernel.build_library` — same cache
directory, same atomic publish, same ``REPRO_NO_C_KERNEL=1`` escape hatch
and silent fallback contract as the fast-batch kernel.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Optional

import numpy as np

from repro.engine._ckernel import build_library

__all__ = [
    "CountRow",
    "load_count_kernel",
    "count_kernel_available",
    "kernel_thread_backend",
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
/*                                                                     */
/* Thread safety: the static table is filled by a dlopen-time          */
/* constructor, so concurrent calls only ever read it.  The heap        */
/* extension is published as an immutable block (its own limit inside   */
/* the struct) through one release-store; readers take one acquire     */
/* load, so a repro_logfact_reserve racing a running kernel call --    */
/* possible when threads share the kernel, since ctypes has            */
/* dropped the GIL -- serves either the old block or the new one, both  */
/* bit-identical to the lgamma fallback.  Superseded blocks are leaked  */
/* on purpose (readers may still hold them); doubling growth bounds     */
/* the total leak by the final block's size.                            */
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

static logfact_block *logfact_heap = 0;  /* __atomic acquire/release only */
static int logfact_reserve_lock = 0;     /* spinlock serialising writers */

static double logfactorial(int64_t k)
{
    if (k < LOGFACT_TABLE)
        return logfact_table[k];
    logfact_block *blk = __atomic_load_n(&logfact_heap, __ATOMIC_ACQUIRE);
    if (blk && k < blk->limit)
        return blk->values[k - LOGFACT_TABLE];
    return lgamma((double)k + 1.0);
}

/* Extend the log-factorial table to cover arguments < limit.  Growth
 * only (never shrinks); allocation failure just keeps the lgamma
 * fallback.  Safe against concurrent readers (see above) and against
 * concurrent reservers (the spinlock -- contention is one-off engine
 * construction, never a hot path). */
void repro_logfact_reserve(int64_t limit)
{
    while (__atomic_exchange_n(&logfact_reserve_lock, 1, __ATOMIC_ACQUIRE))
        ;
    logfact_block *old = __atomic_load_n(&logfact_heap, __ATOMIC_RELAXED);
    int64_t current = old ? old->limit : LOGFACT_TABLE;
    if (limit > current) {
        int64_t target = (limit > 2 * current) ? limit : 2 * current;
        logfact_block *fresh = (logfact_block *)malloc(
            sizeof(logfact_block)
            + (size_t)(target - LOGFACT_TABLE) * sizeof(double));
        if (fresh) {
            if (old)
                memcpy(fresh->values, old->values,
                       (size_t)(current - LOGFACT_TABLE) * sizeof(double));
            for (int64_t k = current; k < target; k++)
                fresh->values[k - LOGFACT_TABLE] = lgamma((double)k + 1.0);
            fresh->limit = target;
            __atomic_store_n(&logfact_heap, fresh, __ATOMIC_RELEASE);
        }
    }
    __atomic_store_n(&logfact_reserve_lock, 0, __ATOMIC_RELEASE);
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
 * cumulative walk visits only the `ids` list, like the Python path's
 * occupied-compacted _sample_multiset. */
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
 *              r*cap + i holds (new_r << 32) | new_i or < 0 if the pair is
 *              not compiled yet
 * k          : number of registered state ids (encoder length)
 * cap        : side length of the lookup table
 * budget     : interaction budget for this call; <= 0 does nothing
 * applied    : out, interactions applied (commits are all-or-nothing per
 *              batch; a miss rolls the batch back fully, RNG included)
 * miss_r/i   : out, the uncompiled (responder, initiator) pair that
 *              stopped the call, or (-1, -1)
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
    int64_t miss_r;
    int64_t miss_i;
} count_row;

/* Advance one engine's count-space batched simulation by up to
 * row->budget interactions.
 *
 * n            : population size
 * neg_survival : -P(L >= j+1) ascending, length jmax (see CountBatchEngine)
 * jmax         : survival-curve truncation length
 * sk           : scratch stride, >= row->k
 * scratch      : 11*sk int64 workspace.  The five weight regions (first
 *                5*sk entries) must be all-zero on entry and are restored
 *                to zero on exit; the four id-list regions, the candidate
 *                region and the initiator-pool region are plain scratch
 *
 * The occupied scan is served from a sorted candidate list built by one
 * full k-scan at call entry and extended at every commit with the
 * states that received agents.  Candidates whose count dropped to zero
 * are filtered per batch by the same counts[sid] > 0 test the full scan
 * applied, so the frontier (and with it every draw) is bit-identical
 * while per-batch scan cost follows the frontier, not k.
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
        /* Batch-start RNG snapshot: a LUT miss rolls the batch back. */
        uint64_t s0 = rng[0], s1 = rng[1], s2 = rng[2], s3 = rng[3];

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

        /* 2. Participant multiset: involved ~ MVH(counts, 2L), by
         * sequential conditional hypergeometric splits. */
        int64_t ninv = 0;
        int64_t m = 2 * length;
        int64_t total = n;
        for (int64_t idx = 0; idx < nocc && m > 0; idx++) {
            int64_t sid = occ[idx];
            int64_t color = counts[sid];
            int64_t rest = total - color;
            int64_t drawn = (rest == 0) ? m : hyp_draw(rng, color, rest, m);
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
            int64_t drawn = (rest == 0) ? m : hyp_draw(rng, color, rest, m);
            if (drawn > 0) {
                responders[sid] = drawn;
                resp_occ[nresp++] = sid;
                m -= drawn;
            }
            total = rest;
        }

        /* Initiator pool: the involved states with initiators left, in
         * inv_occ order.  Rows drop the states they deplete, so each row
         * walks only states that can still draw. */
        int64_t npool = 0;
        for (int64_t idx = 0; idx < ninv; idx++) {
            int64_t sid = inv_occ[idx];
            remaining_i[sid] = involved[sid] - responders[sid];
            if (remaining_i[sid] > 0)
                pool[npool++] = sid;
        }
        int64_t rem_total = length;

        /* 3. Pairing rows -> post-state multiset `used` via the LUT.
         * A row's draw stops once its slots are filled; `reach` is how far
         * into the pool it got.  States outside the pool have no
         * initiators left and entries past `reach` drew nothing, so the
         * walk over pool[0, reach) meets every nonzero cell of the row in
         * inv_occ order: used_occ's order and the first missing pair do
         * not depend on the compaction. */
        int64_t nused = 0;
        int missed = 0;
        int64_t miss_r = -1, miss_i = -1;
        for (int64_t ridx = 0; ridx < nresp && !missed; ridx++) {
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
                if (mult <= 0)
                    continue;
                int64_t packed = lut_row[b];
                if (packed < 0) {
                    missed = 1;
                    miss_r = a;
                    miss_i = b;
                    break;
                }
                int64_t new_r = packed >> 32;
                int64_t new_i = packed & 0xFFFFFFFF;
                if (used[new_r] == 0)
                    used_occ[nused++] = new_r;
                used[new_r] += mult;
                if (used[new_i] == 0)
                    used_occ[nused++] = new_i;
                used[new_i] += mult;
            }
            if (row_is_tmp) {
                /* Zero the row and drop the states it depleted; the pool
                 * past `reach` is untouched and shifts down intact. */
                int64_t kept = 0;
                for (int64_t idx = 0; idx < reach; idx++) {
                    int64_t sid = pool[idx];
                    if (!missed)
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

        /* 4. Colliding interaction, sampled *before* the commit: the
         * fresh pool's weights are counts - involved, identical to the
         * Python path's post-commit (counts - used). */
        int64_t coll_or = -1, coll_oi = -1, coll_nr = -1, coll_ni = -1;
        if (!missed && collide) {
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
            if (packed < 0) {
                missed = 1;
                miss_r = coll_or;
                miss_i = coll_oi;
            } else {
                coll_nr = packed >> 32;
                coll_ni = packed & 0xFFFFFFFF;
            }
        }

        if (missed) {
            /* Full rollback: RNG, scratch.  counts/seen were untouched. */
            rng[0] = s0;
            rng[1] = s1;
            rng[2] = s2;
            rng[3] = s3;
            for (int64_t idx = 0; idx < ninv; idx++) {
                int64_t sid = inv_occ[idx];
                involved[sid] = 0;
                responders[sid] = 0;
                remaining_i[sid] = 0;
            }
            for (int64_t idx = 0; idx < nused; idx++)
                used[used_occ[idx]] = 0;
            row->miss_r = miss_r;
            row->miss_i = miss_i;
            break;
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
            counts[sid] += used[sid];
            used[sid] = 0;
            seen[sid] = 1;
            cand_insert(cand, &ncand, sid);
        }
        applied += length;
        if (collide) {
            counts[coll_or] -= 1;
            counts[coll_nr] += 1;
            counts[coll_oi] -= 1;
            counts[coll_ni] += 1;
            seen[coll_nr] = 1;
            seen[coll_ni] = 1;
            cand_insert(cand, &ncand, coll_nr);
            cand_insert(cand, &ncand, coll_ni);
            applied += 1;
        }
    }
    row->applied = applied;
}

/* The entry point: advance one engine by up to row->budget interactions
 * (see run_row).  A miss stops the call early; the caller compiles the
 * reported pair and re-enters with the reduced budget.
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
    row->miss_r = -1;
    row->miss_i = -1;
    if (row->budget > 0)
        run_row(row, n, neg_survival, jmax, row->k, scratch);
}
"""

_kernel: Optional[ctypes.CFUNCTYPE] = None
_logfact_reserve: Optional[ctypes.CFUNCTYPE] = None
_load_attempted = False

#: Serialises the first (build + CDLL) load; the warm path is a lock-free
#: double-checked read of ``_load_attempted`` (same discipline as
#: :mod:`repro.engine._ckernel`).
_load_lock = threading.Lock()

_MASK64 = (1 << 64) - 1


class CountRow(ctypes.Structure):
    """One engine's argument block for the kernel entry (the C ``count_row``).

    The pointer fields address NumPy buffers the caller keeps alive; the
    caller sets ``k``, ``cap`` and ``budget`` and the kernel writes
    ``applied`` and the ``miss_*`` pair.
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
        ("miss_r", ctypes.c_int64),
        ("miss_i", ctypes.c_int64),
    ]


def seed_kernel_rng(rng) -> np.ndarray:
    """Four xoshiro256++ state words derived from a NumPy generator.

    One 64-bit draw from ``rng`` is expanded through SplitMix64 (the
    seeding scheme the xoshiro authors recommend), so the kernel stream is
    a deterministic function of the engine seed while the NumPy stream
    advances by exactly one draw — and only when the kernel is active, so
    the Python fallback path's stream (and its digest pins) are untouched.
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
    thread-safe (double-checked, lock-free when warm), never raises, honours
    ``REPRO_NO_C_KERNEL=1``.
    """
    global _load_attempted
    if _load_attempted:
        return _kernel
    with _load_lock:
        if _load_attempted:
            return _kernel
        _load_count_kernel_locked()
        _load_attempted = True
    return _kernel


def _load_count_kernel_locked() -> None:
    if os.environ.get("REPRO_NO_C_KERNEL"):
        return
    try:
        _bind(ctypes.CDLL(str(build_library(_SOURCE, "repro_count_kernel"))))
    except Exception:  # no compiler, or a library without these symbols
        pass


def _bind(library) -> None:
    """Publish ``library``'s entry points; raises before publishing any
    when a symbol is missing.

    Split from the loader so a build with other flags (a sanitizer build,
    say) can be swapped in: ``_bind(ctypes.CDLL(path))`` then mark the
    load attempted.
    """
    global _kernel, _logfact_reserve
    function = library.repro_count_row
    function.restype = None
    function.argtypes = [
        ctypes.c_void_p,  # row: CountRow address
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # neg_survival
        ctypes.c_int64,  # jmax
        ctypes.c_void_p,  # scratch (11 * k)
    ]
    reserve = library.repro_logfact_reserve
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
