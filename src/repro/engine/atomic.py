"""Atomic file writes: a reader at the path only ever sees a complete file.

The package publishes files in two forms, both atomic at the path, so a
crash mid-write leaves the previous file (or none) in place:

* **One-shot**, :func:`atomic_write`: a fresh same-directory temp file,
  then ``os.replace``.  Experiment results and store cells
  (:mod:`repro.experiments.io`), closure files
  (:mod:`repro.engine.closure`), :func:`repro.experiments.io.write_checkpoint`
  and a ``Simulation.write_checkpoint()`` called outside a run all take it.
  Each write creates one inode and frees the one it replaces.
* **Swap**, :class:`SwapWriter`: the periodic checkpoints of one
  ``Simulation.run`` publish through one writer, which keeps two inodes
  and exchanges them with ``renameat2(RENAME_EXCHANGE)``.  A write
  rewrites the spare in place and swaps it with the file at the path, so
  no inode is created or freed after the second write.  Where the
  exchange is unavailable (no ``renameat2`` in the C library, or a
  filesystem that refuses it), every write falls back to ``os.replace``.

A swap never changes an inode that is still at the path.  But a reader that
holds the displaced inode open across the *next* write can see it
rewritten; a checksummed reader (:func:`repro.experiments.io.read_checkpoint`)
then fails with ``CheckpointError``, never returning a wrong payload.  A
process killed mid-run leaves its swap writer's temp file, a complete
earlier version, beside the path; no later run removes it.

No ``fsync`` is issued: the writes are atomic, not durable across a power
loss.
"""

from __future__ import annotations

import ctypes
import errno
import functools
import os
from pathlib import Path

__all__ = ["atomic_write", "SwapWriter"]

#: ``renameat2`` errors that mean "no exchange here": the writer then
#: publishes every later write with ``os.replace``.
_UNSUPPORTED = frozenset(
    {errno.EINVAL, errno.ENOSYS, errno.ENOTSUP, errno.EOPNOTSUPP, errno.EXDEV}
)
_AT_FDCWD = -100
_RENAME_EXCHANGE = 2
_REWRITE = os.O_WRONLY | getattr(os, "O_BINARY", 0)
_CREATE = _REWRITE | os.O_CREAT | os.O_EXCL


@functools.lru_cache(maxsize=None)
def _renameat2():
    """glibc's ``renameat2`` (2.28 and later; Python's ``os`` does not
    expose it), or ``None`` where the C library has none.  Bound on first
    use: the lookup costs about a millisecond, which a process that never
    swaps should not pay at import."""
    try:
        function = ctypes.CDLL(None, use_errno=True).renameat2
    except (OSError, AttributeError, TypeError):
        return None
    function.restype = ctypes.c_int
    function.argtypes = [
        ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint,
    ]
    return function


def _exchange(first: Path, second: Path) -> None:
    """Atomically swap the directory entries ``first`` and ``second``."""
    renameat2 = _renameat2()
    if renameat2 is None:
        raise OSError(errno.ENOSYS, "renameat2 is not available", str(first))
    source, target = os.fsencode(first), os.fsencode(second)
    if renameat2(_AT_FDCWD, source, _AT_FDCWD, target, _RENAME_EXCHANGE) != 0:
        code = ctypes.get_errno()
        raise OSError(code, os.strerror(code), str(first), None, str(second))


def _write_chunks(descriptor: int, chunks) -> int:
    """Write ``chunks`` in order from the descriptor's offset; return the
    number of bytes written.  Each chunk is written as it is, so a large
    buffer (a ``memoryview`` of an array) is never joined into one
    ``bytes``."""
    length = 0
    for chunk in chunks:
        view = memoryview(chunk).cast("B")
        while view:
            written = os.write(descriptor, view)
            length += written
            view = view[written:]
    return length


def _temp_path(path: Path) -> Path:
    return path.parent / f".{path.name}.{os.getpid()}.{os.urandom(6).hex()}"


def atomic_write(path: Path, *chunks) -> Path:
    """Write ``chunks`` (bytes-like objects, in order) to ``path`` atomically.

    ``os.replace`` is atomic on POSIX and Windows when source and target
    share a filesystem, which the same-directory temp file guarantees.  The
    temp file, ``.{name}.{pid}.{random}``, is created with mode ``0o666``
    under the umask, so the published file gets the permissions a plain
    ``open(path, "wb")`` would give it; it is removed when the write fails.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = _temp_path(path)
    descriptor = os.open(temp, _CREATE, 0o666)
    try:
        try:
            _write_chunks(descriptor, chunks)
        finally:
            os.close(descriptor)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    return path


class SwapWriter:
    """Publishes successive versions of the file at ``path`` by exchange.

    The first write takes :func:`atomic_write`, which frees whatever file
    the path held before.  Every later write opens the writer's temp file
    (``.{name}.{pid}.{random}``, created by the second write with mode
    ``0o666`` under the umask) by name, writes the new contents from offset
    0, truncates it to their length, closes it and exchanges it with the
    file at ``path``.  The temp name then holds the previous complete
    version, the spare for the next write.  Opening by name matters: a
    descriptor kept across the exchange would point at the file now at the
    path, and the next write would rewrite it in place.

    A failed write raises its ``OSError`` with the file at ``path``
    untouched, after the temp file is removed.  :meth:`close` removes the
    temp file; the owner calls it when its run ends.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._temp = _temp_path(self.path)
        self._published = False  # the first write is one-shot
        self._spare = False  # the temp name holds this writer's inode
        self._swaps = True  # cleared once the filesystem refuses an exchange

    def write(self, *chunks) -> Path:
        """Publish ``chunks`` (bytes-like objects, in order) at the path."""
        if not (self._published and self._swaps):
            atomic_write(self.path, *chunks)
            self._published = True
            return self.path
        try:
            descriptor = os.open(self._temp, _REWRITE if self._spare else _CREATE, 0o666)
            self._spare = True
            try:
                os.ftruncate(descriptor, _write_chunks(descriptor, chunks))
            finally:
                os.close(descriptor)
            self._publish()
        except BaseException:
            self.close()
            raise
        return self.path

    def _publish(self) -> None:
        """Swap the written temp file into place, or replace the path with
        it where no exchange can be made (the exchange unsupported, or the
        path gone: the file was removed mid-run)."""
        try:
            _exchange(self._temp, self.path)
            return
        except OSError as error:
            if error.errno in _UNSUPPORTED:
                self._swaps = False
            elif error.errno != errno.ENOENT:
                raise
        os.replace(self._temp, self.path)
        self._spare = False

    def close(self) -> None:
        """Remove the temp file; the file at the path stays."""
        if self._spare:
            self._spare = False
            try:
                os.unlink(self._temp)
            except OSError:
                pass
