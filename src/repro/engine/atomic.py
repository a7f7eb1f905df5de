"""Atomic file writes: a same-directory temp file, then ``os.replace``.

The one write-replace helper of the package.  Checkpoints, experiment
results and store cells (:mod:`repro.experiments.io`) and the persistent
closure cache (:mod:`repro.engine.closure`) all publish through it, so a
reader only ever observes a complete file, and a crash mid-write leaves the
previous file (or none) in place.  No ``fsync`` is issued: the write is
atomic, not durable across a power loss.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write"]


def atomic_write(path: Path, *chunks) -> Path:
    """Write ``chunks`` (bytes-like objects, in order) to ``path`` atomically.

    ``os.replace`` is atomic on POSIX and Windows when source and target
    share a filesystem, which the same-directory temp file guarantees.  The
    chunks are written one by one, so a large buffer (a ``memoryview`` of an
    array) is never copied into one joined ``bytes``.  The temp file,
    ``.{name}.{pid}.{random}``, is created with mode ``0o666`` under the
    umask, so the published file gets the permissions a plain
    ``open(path, "wb")`` would give it; it is removed when the write fails.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.parent / f".{path.name}.{os.getpid()}.{os.urandom(6).hex()}"
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)
    descriptor = os.open(temp, flags, 0o666)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    return path
