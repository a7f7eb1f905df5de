"""Optional C hot-path kernel for the exact batched engine.

:mod:`repro.engine.fast_batch` applies interaction blocks either through
its vectorised NumPy wave schedule or — when a working C compiler is
available — through the C kernel below, which executes them in strict
sequential order against the protocol's shared packed transition table
(:class:`~repro.engine.table.TransitionTable`).  The C path needs no
collision analysis at all (it *is* the sequential semantics, just without
the interpreter), runs at a few nanoseconds per interaction, and is
bit-for-bit identical to both the NumPy path and
:class:`~repro.engine.engine.SequentialEngine`.

This module also owns the generic cached-build machinery
(:func:`build_library`) shared with the count-space kernel
(:mod:`repro.engine._count_kernel`): every kernel source is compiled once
per digest of its source and flags with the system ``cc`` into a **user
cache directory** — ``$REPRO_KERNEL_CACHE`` if set, else
``$XDG_CACHE_HOME/repro/kernels``, else ``~/.cache/repro/kernels`` — so
installed or packaged source trees stay clean (releases before this scheme built into
``src/repro/engine/_kernel_build/``, which remains gitignored for old
checkouts).  Builds happen in a **per-process temporary directory** inside
the cache and are published with one ``os.replace`` — the same
write-replace discipline as :func:`repro.engine.atomic.atomic_write` — so
concurrent compiles (e.g. a ``run_many`` worker pool starting cold on a
shared cache) can never observe or load a
half-written artifact; whichever build finishes last simply replaces an
identical library.  Compilation is attempted lazily on first use and every
failure — no compiler, sandboxed filesystem, exotic platform — silently
falls back to the NumPy path.  Set ``REPRO_NO_C_KERNEL=1`` to force the
fallback (the test suite uses this to pin the NumPy path's exactness).

The kernel has one entry, ``repro_fast_block``, which takes one engine's
:class:`FastBlock` argument block (agent states, pair buffers, LUT, seen
mask, count vector, bit generator).  Its contract:

* **Drawing on or off.**  With ``bitgen`` set the entry advances a whole
  ``remaining`` count chunk by chunk: each chunk of ``min(remaining,
  block)`` pairs is drawn into the engine's pair buffers exactly as
  :meth:`~repro.engine.scheduler.PairSampler.pair_block` draws it (all
  responders, all initiators, then rounds of ascending-index redraws of
  every initiator equal to its responder), through NumPy's public
  ``bitgen_t`` interface (``bit_generator.ctypes.bit_generator``) and
  Lemire's bounded rejection on ``next_uint32`` words — the very words and
  arithmetic of ``Generator.integers`` — so the generator ends where
  ``pair_block`` leaves it, whatever the bit generator.  With ``bitgen``
  NULL the entry applies only the chunk the caller put in the buffers
  (topology schedulers, explicit blocks).
* **Scope of the draw.**  ``2 <= n <= 2**32 - 1``: NumPy takes raw
  32-bit words at ``n = 2**32`` and 64-bit words above it, which the
  kernel does not reproduce, so the engine keeps drawing through
  ``pair_block`` there.
* **The bit-generator lock.**  The caller holds ``bit_generator.lock``
  around the call, as ``Generator.integers`` does, since ctypes drops the
  GIL for it.
* **Misses.**  The entry stops at the first state pair whose table entry is
  still negative, with ``position`` at that interaction; the caller
  compiles the pair in Python (registering new states exactly as the scalar
  engines do) and calls again, which resumes there without drawing.  Misses
  are a per-state-pair one-time cost.
* **Occupancy and counts.**  For each agent an applied transition
  changes, the kernel marks its new state in the ``seen`` byte mask and
  moves one unit of the ``counts`` vector from the old id to the new one,
  which is how :class:`~repro.engine.fast_batch.FastBatchEngine` keeps
  ``states_ever_occupied`` exact and its counts live without leaving C.
  Both buffers are the engine's ledger (``BaseEngine._counts`` and
  ``_seen``), passed by address; the engine rebinds them whenever
  ``_ensure_capacity`` reallocates them for a grown table.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Sequence

__all__ = [
    "FastBlock",
    "build_library",
    "load_kernel",
    "kernel_available",
    "kernel_cache_dir",
]

_SOURCE = r"""
#include <stdint.h>

/* NumPy's bit-generator interface (numpy/random/bitgen.h): the generic
 * bitgen_t every BitGenerator exposes as bit_generator.ctypes.bit_generator.
 */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* A uniform integer in [0, range), 2 <= range <= 2^32 - 1, by Lemire's
 * bounded multiply with rejection ("Fast Random Integer Generation in an
 * Interval", ACM TOMACS 2019).  Word for word what
 * Generator.integers(0, range, dtype=np.int64) draws per entry (NumPy's
 * buffered_bounded_lemire_uint32 on the same next_uint32 words). */
static inline int64_t bounded(bitgen_t *bitgen, uint32_t range)
{
    uint64_t m = (uint64_t)bitgen->next_uint32(bitgen->state) * range;
    uint32_t leftover = (uint32_t)m;
    if (leftover < range) {
        const uint32_t threshold = (uint32_t)(0u - range) % range;
        while (leftover < threshold) {
            m = (uint64_t)bitgen->next_uint32(bitgen->state) * range;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* One engine's argument block (FastBlock, a ctypes mirror of this layout).
 * The engine keeps it for its lifetime and rewrites a pointer field only
 * when that buffer is reallocated.
 *
 * states     : per-agent state identifiers (int32, mutated in place);
 *              NULL draws one chunk only (see repro_fast_block)
 * responders : pair buffer, agent index of each responder (int64, >= block)
 * initiators : pair buffer, agent index of each initiator (int64, >= block)
 * redraw     : scratch for the collision list (int64, >= block); unused
 *              with drawing off
 * lut        : flattened (cap x cap) table; entry r*cap + i holds
 *              (new_r << 32) | new_i, or a negative value when the pair
 *              has not been compiled yet
 * seen       : byte mask over state ids (>= cap entries); every state an
 *              applied transition moves an agent into is marked 1
 * counts     : agents per state id (int64, >= cap entries); an applied
 *              transition moves each agent whose state it changes from its
 *              old id's count to its new id's
 * bitgen     : the engine's bitgen_t, or NULL with drawing off
 * n          : population size, 2 <= n <= 2^32 - 1 with drawing on
 * cap        : side length of the lookup table
 * block      : largest chunk one draw fills
 * remaining  : in/out, interactions still to apply, counting the unapplied
 *              tail of the buffered chunk
 * chunk      : in/out, length of the chunk held in the pair buffers
 * position   : in/out, next interaction of that chunk to apply
 */
typedef struct {
    int32_t *states;
    int64_t *responders;
    int64_t *initiators;
    int64_t *redraw;
    const int64_t *lut;
    uint8_t *seen;
    int64_t *counts;
    bitgen_t *bitgen;
    int64_t n;
    int64_t cap;
    int64_t block;
    int64_t remaining;
    int64_t chunk;
    int64_t position;
} fast_block;

/* Fill the pair buffers with `count` pairs exactly as
 * PairSampler.pair_block(count) draws them: every responder, then every
 * initiator, then rounds of ascending-index redraws of the initiators
 * that equal their responder (one round per NumPy call of the Python
 * loop), until none does. */
static void draw_pairs(fast_block *arg, int64_t count)
{
    bitgen_t *bitgen = arg->bitgen;
    uint32_t n = (uint32_t)arg->n;
    int64_t *a = arg->responders;
    int64_t *b = arg->initiators;
    int64_t *redraw = arg->redraw;
    for (int64_t j = 0; j < count; j++) {
        a[j] = bounded(bitgen, n);
    }
    int64_t pending = 0;
    for (int64_t j = 0; j < count; j++) {
        b[j] = bounded(bitgen, n);
        if (b[j] == a[j]) {
            redraw[pending++] = j;
        }
    }
    while (pending > 0) {
        int64_t kept = 0;
        for (int64_t i = 0; i < pending; i++) {
            int64_t j = redraw[i];
            b[j] = bounded(bitgen, n);
            if (b[j] == a[j]) {
                redraw[kept++] = j;
            }
        }
        pending = kept;
    }
}

/* Apply population-protocol interactions in strict sequential order.
 *
 * First the unapplied tail of the buffered chunk, then -- with drawing
 * on -- fresh chunks of min(remaining, block) pairs drawn into the pair
 * buffers, until `remaining` reaches 0.  With drawing off the call ends
 * when the buffered chunk is exhausted.
 *
 * Returns 1 at the first interaction whose state pair is missing from the
 * table, with `position` at that interaction (the caller compiles the pair
 * and calls again, which resumes there without drawing), or 0 once done.
 *
 * With `states` NULL the call draws one chunk into the pair buffers and
 * returns 0 without applying it: the draw on its own, checked against
 * pair_block at population sizes no agent array could hold.
 */
int64_t repro_fast_block(fast_block *arg)
{
    int32_t *states = arg->states;
    const int64_t *responders = arg->responders;
    const int64_t *initiators = arg->initiators;
    const int64_t *lut = arg->lut;
    uint8_t *seen = arg->seen;
    int64_t *counts = arg->counts;
    int64_t cap = arg->cap;
    for (;;) {
        if (arg->position >= arg->chunk) {
            if (arg->remaining <= 0 || arg->bitgen == 0) {
                return 0;
            }
            int64_t count = arg->remaining < arg->block ? arg->remaining : arg->block;
            draw_pairs(arg, count);
            arg->chunk = count;
            arg->position = 0;
            if (states == 0) {
                return 0;
            }
        }
        int64_t start = arg->position;
        int64_t chunk = arg->chunk;
        for (int64_t t = start; t < chunk; t++) {
            int64_t agent_r = responders[t];
            int64_t agent_i = initiators[t];
            int32_t old_r = states[agent_r];
            int32_t old_i = states[agent_i];
            int64_t packed = lut[(int64_t)old_r * cap + old_i];
            if (packed < 0) {
                arg->position = t;
                arg->remaining -= t - start;
                return 1;
            }
            int32_t new_r = (int32_t)(packed >> 32);
            int32_t new_i = (int32_t)(packed & 0xFFFFFFFF);
            /* Unchanged agents touch nothing: a branch-free update would
             * chain read-modify-writes on one hot count (in a slow
             * election nearly every agent shares one state). */
            if (new_r != old_r) {
                states[agent_r] = new_r;
                seen[new_r] = 1;
                counts[old_r]--;
                counts[new_r]++;
            }
            if (new_i != old_i) {
                states[agent_i] = new_i;
                seen[new_i] = 1;
                counts[old_i]--;
                counts[new_i]++;
            }
        }
        arg->position = chunk;
        arg->remaining -= chunk - start;
    }
}
"""



class FastBlock(ctypes.Structure):
    """One engine's argument block for the kernel entry (the C ``fast_block``).

    The pointer fields address NumPy buffers (and the bit generator's
    ``bitgen_t``) that the caller keeps alive; the caller sets ``n``,
    ``cap`` and ``block``, and the kernel reads and advances ``remaining``,
    ``chunk`` and ``position``.
    """

    _fields_ = [
        ("states", ctypes.c_void_p),
        ("responders", ctypes.c_void_p),
        ("initiators", ctypes.c_void_p),
        ("redraw", ctypes.c_void_p),
        ("lut", ctypes.c_void_p),
        ("seen", ctypes.c_void_p),
        ("counts", ctypes.c_void_p),
        ("bitgen", ctypes.c_void_p),
        ("n", ctypes.c_int64),
        ("cap", ctypes.c_int64),
        ("block", ctypes.c_int64),
        ("remaining", ctypes.c_int64),
        ("chunk", ctypes.c_int64),
        ("position", ctypes.c_int64),
    ]


_kernel: Optional[ctypes.CFUNCTYPE] = None
_load_attempted = False

#: Flags of every kernel build.  ``-ffp-contract=off`` keeps the compiler
#: from fusing multiply-adds on FMA targets (aarch64, say), so floating-point
#: results, and with them the count kernel's draws, match across platforms.
BUILD_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def kernel_cache_dir() -> Path:
    """Directory the compiled kernel artifacts are cached in.

    Resolution order: ``$REPRO_KERNEL_CACHE`` (explicit override), then
    ``$XDG_CACHE_HOME/repro/kernels``, then ``~/.cache/repro/kernels``.
    Keeping build products out of the source tree means installed and
    packaged trees stay pristine and the cache survives reinstalls.
    """
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "kernels"


def build_library(
    source: str,
    stem: str,
    cache_dir: Optional[Path] = None,
    extra_flags: Sequence[str] = (),
) -> Path:
    """Compile ``source`` into a cached shared library and return its path.

    The artifact name embeds a digest of the source *and* every compile
    flag (:data:`BUILD_FLAGS` plus ``extra_flags``; ``{stem}_{digest}.so``),
    so a source or flag change compiles a fresh library and an unchanged
    one is a single ``Path.exists`` check — the same cache can hold e.g. a
    plain and a sanitizer build of one kernel side by side.  The build runs entirely inside a per-process temporary
    directory created *within* the cache directory (same filesystem, so the
    final ``os.replace`` publish is atomic) and the temp dir is removed
    whatever happens — concurrent builders each work in their own directory
    and race only on the atomic rename, never on the intermediate
    ``.c``/``.so`` files.  ``extra_flags`` are inserted before the output
    arguments (e.g. ``("-fsanitize=address",)``); a flag the toolchain
    rejects makes the compile raise.  Raises on any failure; callers that must
    not raise (the kernel loaders) wrap this in their own guard.
    """
    cache = kernel_cache_dir() if cache_dir is None else cache_dir
    flags = [*BUILD_FLAGS, *extra_flags]
    fingerprint = source + "\x00" + "\x00".join(flags)
    digest = hashlib.sha256(fingerprint.encode()).hexdigest()[:16]
    lib_path = cache / f"{stem}_{digest}.so"
    if lib_path.exists():
        return lib_path
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise RuntimeError("no C compiler on PATH")
    cache.mkdir(parents=True, exist_ok=True)
    build_dir = Path(tempfile.mkdtemp(prefix=f".{stem}-build-", dir=cache))
    try:
        c_path = build_dir / f"{stem}.c"
        so_path = build_dir / f"{stem}.so"
        c_path.write_text(source)
        subprocess.run(
            [compiler, *flags, "-o", str(so_path), str(c_path), "-lm"],
            check=True,
            capture_output=True,
            timeout=120,
        )
        # Atomic publish so concurrent workers never load a half-written lib.
        os.replace(so_path, lib_path)
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)
    return lib_path


def load_kernel():
    """The compiled block entry (``repro_fast_block``), or ``None`` when
    unavailable.

    The first call pays the (cached) compilation; subsequent calls are a
    module-global read.  Never raises.
    """
    global _load_attempted
    if not _load_attempted:
        _load_attempted = True
        if not os.environ.get("REPRO_NO_C_KERNEL"):
            try:
                _bind(build_library(_SOURCE, "repro_kernel"))
            except Exception:  # no compiler, or a library without the symbol
                pass
    return _kernel


def _bind(path) -> None:
    """Publish the block entry of the library at ``path``; raises before
    publishing when the symbol is missing.

    Split from the loader so a build with other flags (a sanitizer build,
    say) can be swapped in: ``_bind(path)`` then mark the load attempted.
    """
    global _kernel
    function = ctypes.CDLL(str(path)).repro_fast_block
    function.restype = ctypes.c_int64
    function.argtypes = [ctypes.c_void_p]  # FastBlock address
    _kernel = function


def kernel_available() -> bool:
    """Whether the C hot path can be used in this environment."""
    return load_kernel() is not None
