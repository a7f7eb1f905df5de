"""Optional C hot-path kernel for the exact batched engine.

:mod:`repro.engine.fast_batch` applies pre-sampled interaction blocks either
through its vectorised NumPy wave schedule or — when a working C compiler is
available — through the tiny C kernel below, which executes the block in
strict sequential order against the protocol's shared packed transition
table (:class:`~repro.engine.table.TransitionTable`).  The C path needs no
collision analysis at all (it *is* the sequential semantics, just without
the interpreter), runs at a few nanoseconds per interaction, and is
bit-for-bit identical to both the NumPy path and
:class:`~repro.engine.engine.SequentialEngine`.

This module also owns the generic cached-build machinery
(:func:`build_library`) shared with the count-space kernel
(:mod:`repro.engine._count_kernel`): every kernel source is compiled once
per source digest with the system ``cc`` into a **user cache directory** —
``$REPRO_KERNEL_CACHE`` if set, else ``$XDG_CACHE_HOME/repro/kernels``,
else ``~/.cache/repro/kernels`` — so installed or packaged source trees
stay clean (releases before this scheme built into
``src/repro/engine/_kernel_build/``, which remains gitignored for old
checkouts).  Builds happen in a **per-process temporary directory** inside
the cache and are published with one ``os.replace`` — the same
write-replace discipline as the atomic checkpoint writer in
:mod:`repro.experiments.io` — so concurrent compiles (e.g. a ``run_many``
worker pool starting cold on a shared cache) can never observe or load a
half-written artifact; whichever build finishes last simply replaces an
identical library.  Compilation is attempted lazily on first use and every
failure — no compiler, sandboxed filesystem, exotic platform — silently
falls back to the NumPy path.  Set ``REPRO_NO_C_KERNEL=1`` to force the
fallback (the test suite uses this to pin the NumPy path's exactness).

The function contract mirrors the engine's miss-handling loop: the kernel
applies interactions until it hits a state pair whose table entry is still
``-1`` and returns that interaction's index; the caller compiles the pair
in Python (registering new states exactly as the scalar engines do) and
resumes.  Misses are a per-state-pair one-time cost, so the loop almost
always completes in a single call.  Alongside each applied transition the
kernel marks the two output state ids in the caller's ``seen`` byte mask,
which is how :class:`~repro.engine.fast_batch.FastBatchEngine` keeps
``states_ever_occupied`` exact without leaving C.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["build_library", "load_kernel", "kernel_available", "kernel_cache_dir"]

_SOURCE = r"""
#include <stdint.h>

/* Apply population-protocol interactions in strict sequential order.
 *
 * states     : per-agent state identifiers (int32, mutated in place)
 * responders : agent index of the responder of each interaction (int64)
 * initiators : agent index of the initiator of each interaction (int64)
 * n_pairs    : number of interactions in the block
 * start      : index to resume from
 * lut        : flattened (cap x cap) table; entry r*cap + i holds
 *              (new_r << 32) | new_i, or a negative value when the pair
 *              has not been compiled yet
 * cap        : side length of the lookup table
 * seen       : byte mask over state ids (>= cap entries); the outputs of
 *              every applied transition are marked 1 (ever-occupied
 *              tracking)
 *
 * Returns the index of the first interaction whose state pair is missing
 * from the table (the caller compiles it and resumes), or n_pairs once
 * the whole block has been applied.
 */
int64_t repro_apply_block(
    int32_t *states,
    const int64_t *responders,
    const int64_t *initiators,
    int64_t n_pairs,
    int64_t start,
    const int64_t *lut,
    int64_t cap,
    uint8_t *seen)
{
    for (int64_t t = start; t < n_pairs; t++) {
        int64_t agent_r = responders[t];
        int64_t agent_i = initiators[t];
        int64_t packed = lut[(int64_t)states[agent_r] * cap + states[agent_i]];
        if (packed < 0) {
            return t;
        }
        int32_t new_r = (int32_t)(packed >> 32);
        int32_t new_i = (int32_t)(packed & 0xFFFFFFFF);
        states[agent_r] = new_r;
        states[agent_i] = new_i;
        seen[new_r] = 1;
        seen[new_i] = 1;
    }
    return n_pairs;
}
"""

_kernel: Optional[ctypes.CFUNCTYPE] = None
_load_attempted = False

#: Serialises the first (build + CDLL) load.  The fast path — a re-load
#: after the attempt flag is set — stays lock-free: the flag is only ever
#: flipped False -> True under the lock, and module-global reads are atomic
#: under the GIL, so double-checked locking is sound here.  Without it, two
#: threads starting cold could each run the build probe and publish
#: racing ``CDLL`` handles.
_load_lock = threading.Lock()


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

    The artifact name embeds a digest of the source *and* any extra compile
    flags (``{stem}_{digest}.so``), so a source or flag change compiles a
    fresh library and an unchanged one is a single ``Path.exists`` check —
    the same cache can hold e.g. a plain and a sanitizer build of one kernel
    side by side.  The build runs entirely inside a per-process temporary
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
    extra = list(extra_flags)
    fingerprint = source + "\x00" + "\x00".join(extra)
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
            [compiler, "-O2", "-shared", "-fPIC", *extra]
            + ["-o", str(so_path), str(c_path), "-lm"],
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
    """The compiled block-apply function, or ``None`` when unavailable.

    The first call pays the (cached) compilation; subsequent calls are a
    module-global read.  Thread-safe (double-checked on ``_load_attempted``,
    so the warm path costs nothing) and never raises.
    """
    global _load_attempted
    if _load_attempted:
        return _kernel
    with _load_lock:
        if _load_attempted:
            return _kernel
        _load_kernel_locked()
        _load_attempted = True
    return _kernel


def _load_kernel_locked() -> None:
    if os.environ.get("REPRO_NO_C_KERNEL"):
        return
    try:
        _bind(ctypes.CDLL(str(build_library(_SOURCE, "repro_kernel"))))
    except Exception:  # no compiler, or a library without the symbol
        pass


def _bind(library) -> None:
    """Publish ``library``'s block-apply entry; raises before publishing
    when the symbol is missing.

    Split from the loader so a build with other flags (a sanitizer build,
    say) can be swapped in: ``_bind(ctypes.CDLL(path))`` then mark the
    load attempted.
    """
    global _kernel
    function = library.repro_apply_block
    function.restype = ctypes.c_int64
    function.argtypes = [
        ctypes.c_void_p,  # states
        ctypes.c_void_p,  # responders
        ctypes.c_void_p,  # initiators
        ctypes.c_int64,  # n_pairs
        ctypes.c_int64,  # start
        ctypes.c_void_p,  # lut
        ctypes.c_int64,  # cap
        ctypes.c_void_p,  # seen
    ]
    _kernel = function


def kernel_available() -> bool:
    """Whether the C hot path can be used in this environment."""
    return load_kernel() is not None
