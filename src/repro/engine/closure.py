"""Reachable-state closure of a population protocol, with its transition table.

:func:`reachable_closure` runs a breadth-first fixpoint over a protocol's
deterministic transition function: starting from the initial states, every
ordered pair of known states is evaluated and any state that appears on the
right-hand side of a rule joins the frontier, until no new state appears.
The result is the exact set of states that can *ever* occur in any execution
from the given initial states — finite whenever every state field is bounded
for the protocol's fixed parameters.

This is what lets a protocol with a structured, role-guarded state space
(the GSU19 headline protocol: phase below the clock modulus, level/drag/cnt
capped by ``Φ``/``Ψ``) declare its
:meth:`~repro.engine.protocol.PopulationProtocol.state_closure` and
become eligible for the configuration-space engines, whose memory is
``O(k)`` in the closure size instead of ``O(n)`` in the population.

The BFS works on a :class:`PhaseFactoring` of the transition: a state is a
clock phase plus a phase-free *part*, phases come from Γ×Γ arrays, and the
rules run once per distinct ``(responder part, initiator part, clock
qualifier)`` triple, memoised; each layer is a few NumPy gathers.  GSU19's
1,348 states at ``Γ=24, Φ=1, Ψ=3`` have 63 parts and 13,432 triples, so its
BFS takes about 0.4 s on a 2-CPU host instead of 1.8M transition calls
(GS18, the same shape through
:class:`~repro.clocks.phase_clock.PhaseClockedProtocol`, closes 1,555
states at ``Γ=24, Φ=4``).  A plain transition is the one-phase case.  A
second pass fills the dense ``(K, K)`` ``int64`` table of ``(r' << 32) |
i'`` (the packed layout of :class:`~repro.engine.table.TransitionTable`,
which adopts it through
:meth:`~repro.engine.protocol.PopulationProtocol.state_closure` and starts
fully compiled), and a fixed sample of it is re-checked against the scalar
transition.  :func:`reachable_states` is the states-only view.

The discovery order is deterministic (BFS layers; within a layer, first
occurrence over the frontier's pairs, forward then backward), so state-
identifier layout — and therefore the trajectories of the count-based
engines, which sample by identifier order — is reproducible across runs
and machines.

A closure is a pure function of the protocol class, its calibration and
the package's source, so it is also kept on disk: :func:`closure_file`
names one file per calibration under :func:`closure_cache_dir` (the kernel
build cache's ``closures`` directory), keyed by a digest of the class, the
calibration, every ``*.py`` of the package and the Python and NumPy
versions.  :class:`ClosureFile` loads it (a checksummed header, the raw
LUT, the pickled states; anything unusable is a miss, and the caller runs
the BFS) and writes it atomically, removing the calibration's files of
older keys.  GSU19's file at ``Γ=24, Φ=1, Ψ=3`` is 14.6 MB and loads
in under 0.05 s on a 2-CPU host.  :func:`cached_closure` is the one way a
protocol gets its closure: once per calibration and process, from memory,
else from its file, else from the BFS, whose result it then writes.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.engine._ckernel import kernel_cache_dir
from repro.engine.atomic import atomic_write
from repro.errors import ProtocolError
from repro.types import State, TransitionResult

__all__ = [
    "ClosureFile",
    "PhaseFactoring",
    "cached_closure",
    "closure_cache_dir",
    "closure_file",
    "reachable_closure",
    "reachable_states",
]

#: Default guard against protocols whose state space is effectively unbounded,
#: sized by the closure's K x K int64 LUT: 8,192 states make 512 MiB.  The
#: largest declared closure, GS18 at n = 10^12, has 2,723 states (57 MiB).
_DEFAULT_MAX_STATES = 8_192

#: Pairs per NumPy block (bounds the BFS's temporaries).
_BLOCK = 1 << 16

#: Minimum number of LUT entries re-checked against the scalar transition.
_SPOT_CHECKS = 4096


class PhaseFactoring(NamedTuple):
    """A transition as a responder-only phase clock plus phase-blind rules.

    A state is ``join(phase, part)``, and ``split(state) == (phase, part,
    junta)``.  The responder's phase becomes ``advance[r_phase, i_phase,
    r_junta]``, the initiator's stays, and ``rules(r_part, i_part,
    qualifier[r_phase, new_phase])`` gives the two new parts.  The rules
    must neither read nor change a phase.
    """

    advance: np.ndarray
    qualifier: np.ndarray
    split: Callable[[State], Tuple[int, State, bool]]
    join: Callable[[int, State], State]
    rules: Callable[[State, State, int], TransitionResult]


def reachable_closure(
    transition: Callable[[State, State], TransitionResult],
    seeds: Iterable[State],
    *,
    max_states: int = _DEFAULT_MAX_STATES,
    factoring: Optional[PhaseFactoring] = None,
) -> Tuple[List[State], np.ndarray]:
    """All states reachable from ``seeds``, and the transition table over them.

    Parameters
    ----------
    transition:
        The protocol's deterministic ``(responder, initiator) ->
        (responder', initiator')`` function.  It is called on state objects
        directly (no encoder involved), so the closure can be computed before
        any :class:`~repro.engine.table.TransitionTable` exists — in
        particular from inside ``state_closure`` itself.
    seeds:
        The initial states (for a uniform start, a single state).
    max_states:
        Hard cap on the closure size; exceeding it raises
        :class:`~repro.errors.ProtocolError` instead of running away on a
        protocol whose state space is unbounded in ``n``.
    factoring:
        ``transition`` as a phase clock plus phase-blind rules, which the
        BFS evaluates instead (by default the one-phase factoring: every
        state is its own part, so the memo is a second square array, of
        side ``K`` to ``min(1.5 K, max_states)``, beside the table).  A sample of the finished
        table is checked against ``transition``; a mismatch raises
        :class:`~repro.errors.ProtocolError` naming the pair.

    Returns
    -------
    (states, lut)
        ``states`` is the closure in deterministic BFS discovery order,
        seeds first; a state's identifier is its index.  ``lut`` is a
        read-only ``(K, K)`` ``int64`` array with ``lut[r, i] == (r' << 32)
        | i'`` for ``transition(states[r], states[i]) == (states[r'],
        states[i'])``.
    """
    advance, qualifier, split, join, rules = factoring or PhaseFactoring(
        np.zeros((1, 1, 2), dtype=np.intp),
        np.zeros((1, 1), dtype=np.intp),
        lambda state: (0, state, False),
        lambda phase, part: part,
        lambda responder, initiator, context: transition(responder, initiator),
    )
    gamma, contexts = len(advance), int(qualifier.max()) + 1
    part_ids: dict = {}
    parts, junta, states, phases, owners = [], [], [], [], []
    # A state's code is part * gamma + phase, owners[id] its part; ids[code]
    # is its identifier, or -1.  memo[r_part, i_part, q] is (r_part' << 32)
    # | i_part', or -1 until the rules ran on that triple.
    ids = np.zeros(0, dtype=np.int64)
    memo = np.full((0, 0, contexts), -1, dtype=np.int64)

    def check_size(count: int) -> None:
        if count > max_states:
            raise ProtocolError(
                f"reachable-state closure exceeded {max_states} states; the "
                "protocol's state space looks unbounded for these parameters "
                "(raise max_states if this is intentional)"
            )

    def code_of(state: State) -> int:
        nonlocal ids
        phase, part, is_junta = split(state)
        pid = part_ids.setdefault(part, len(parts))
        if pid == len(parts):
            # Every part is in some reachable state: check before the memo grows.
            check_size(pid + 1)
            parts.append(part)
            junta.append(is_junta)
            if len(ids) < len(parts) * gamma:
                ids = np.concatenate([ids, np.full(len(ids) + gamma, -1, np.int64)])
        return pid * gamma + phase

    def register(codes: Iterable[int]) -> None:
        for code in codes:
            pid, phase = divmod(code, gamma)
            ids[code] = len(states)
            states.append(join(phase, parts[pid]))
            phases.append(phase)
            owners.append(pid)
        check_size(len(states))

    def evaluate(responders: np.ndarray, initiators: np.ndarray):
        """Codes of ``δ(responders, initiators)`` (broadcast id arrays)."""
        nonlocal memo
        if len(memo) < len(parts):
            # Grown by half at least (capped at max_states, which bounds the
            # parts), so a closure that gains a part per layer reallocates
            # O(log K) times, not K: the copies sum to O(K^2), not O(K^3).
            side = min(max_states, max(len(parts), len(memo) * 3 // 2))
            grown = np.full((side, side, contexts), -1, np.int64)
            grown[: len(memo), : len(memo)] = memo
            memo = grown
        state_phase = np.array(phases, dtype=np.intp)
        state_part = np.array(owners, dtype=np.intp)
        r_phase, i_phase = state_phase[responders], state_phase[initiators]
        r_part, i_part = state_part[responders], state_part[initiators]
        new_phase = advance[r_phase, i_phase, np.array(junta, dtype=np.intp)[r_part]]
        stride = len(memo)
        keys = (r_part * stride + i_part) * contexts + qualifier[r_phase, new_phase]
        flat = memo.reshape(-1)
        packed = flat[keys]
        missing = packed < 0
        if missing.any():
            for key in np.unique(keys[missing]).tolist():
                pair, context = divmod(key, contexts)
                responder, initiator = parts[pair // stride], parts[pair % stride]
                new_r, new_i = rules(responder, initiator, context)
                flat[key] = (code_of(new_r) // gamma << 32) | code_of(new_i) // gamma
            packed = flat[keys]
        return (
            (packed >> 32) * gamma + new_phase,
            (packed & 0xFFFFFFFF) * gamma + i_phase,
        )

    register(dict.fromkeys([code_of(seed) for seed in seeds]))
    if not states:
        raise ProtocolError("reachable_states needs at least one seed state")
    lo, hi = 0, len(states)
    while lo < hi:
        # Each fresh f in lo..hi-1 meets every o in 0..hi-1, forward δ(f, o)
        # then backward δ(o, f); new states take ids in first occurrence.
        others = np.arange(hi)[None, :]
        rows = max(1, _BLOCK // hi)
        for start in range(lo, hi, rows):
            fresh = np.arange(start, min(start + rows, hi))[:, None]
            codes = np.stack(
                evaluate(fresh, others) + evaluate(others, fresh), axis=-1
            ).reshape(-1)
            codes = codes[ids[codes] < 0]
            unique, first = np.unique(codes, return_index=True)
            register(unique[np.argsort(first)].tolist())
        lo, hi = hi, len(states)

    # Second pass: every ordered pair is in the memo now.
    size = len(states)
    lut = np.empty((size, size), dtype=np.int64)
    rows = max(1, _BLOCK // size)
    for start in range(0, size, rows):
        block = np.arange(start, min(start + rows, size))[:, None]
        responders, initiators = evaluate(block, np.arange(size)[None, :])
        lut[start : start + rows] = (ids[responders] << 32) | ids[initiators]
    lut.flags.writeable = False

    # The diagonal plus a fixed stride, against the scalar transition.
    index = {state: sid for sid, state in enumerate(states)}
    step = max(1, size * size // _SPOT_CHECKS)
    sample = np.union1d(np.arange(size) * (size + 1), np.arange(0, size * size, step))
    for r, i in zip(*np.divmod(sample, size)):
        new_r, new_i = transition(states[r], states[i])
        if lut[r, i] != (index.get(new_r, -1) << 32) | index.get(new_i, -1):
            raise ProtocolError(
                f"closure LUT disagrees with the transition at ({states[r]!r}, "
                f"{states[i]!r}): the phase factoring does not hold"
            )
    return states, lut


def reachable_states(
    transition: Callable[[State, State], TransitionResult],
    seeds: Iterable[State],
    *,
    max_states: int = _DEFAULT_MAX_STATES,
) -> List[State]:
    """All states reachable from ``seeds`` under pairwise interactions.

    The states of :func:`reachable_closure` (same parameters, same BFS
    discovery order, seeds first), without its transition table.
    """
    return reachable_closure(transition, seeds, max_states=max_states)[0]


# ----------------------------------------------------------------------
# The persistent closure cache
# ----------------------------------------------------------------------
#: First word of a closure file's header line.
CLOSURE_MAGIC = "repro-closure"
#: Layout version of closure files; it is part of every key, so a bump
#: orphans the old files (the next write of a calibration removes them).
CLOSURE_VERSION = 1


def closure_cache_dir() -> Path:
    """Directory of the closure files: ``closures`` in the kernel cache
    (:func:`~repro.engine._ckernel.kernel_cache_dir`, so
    ``REPRO_KERNEL_CACHE`` moves both)."""
    return kernel_cache_dir() / "closures"


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over every ``*.py`` of the ``repro`` package (relative path,
    a NUL, the bytes), computed once per process: any source edit changes
    every closure key."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class ClosureFile(NamedTuple):
    """One calibration's closure on disk: ``path`` and the ``key`` it must
    carry.

    The file is one ASCII header line, ``repro-closure <version> <key>
    <K> <states bytes> <sha256>``, then the ``(K, K)`` LUT's raw ``int64``
    bytes, then the pickled states tuple; the sha256 covers the LUT bytes
    and the pickle.  Both directions stream: the LUT is read into its
    array and written and hashed from a view of it, never joined into one
    ``bytes``.
    """

    path: Path
    key: str

    def load(self) -> Optional[Tuple[Tuple[State, ...], np.ndarray]]:
        """``(states, read-only LUT)``, or ``None`` when the file is missing,
        unreadable, truncated, extended, corrupt, of another version or of
        another key: the caller then runs the BFS, so such a file is never
        trusted.  The checksum is verified before anything is unpickled.
        The BFS's spot check is not repeated: the key pins the sources that
        passed it."""
        expected = [CLOSURE_MAGIC.encode(), str(CLOSURE_VERSION).encode(), self.key.encode()]
        try:
            with open(self.path, "rb") as handle:
                header = handle.readline(512)
                fields = header.split()
                if len(fields) != 6 or fields[:3] != expected:
                    return None
                size, length = int(fields[3]), int(fields[4])
                # Sized before anything is allocated: a truncated or
                # extended file, or a corrupt count, stops here.
                if size <= 0 or length <= 0 or os.fstat(handle.fileno()).st_size != (
                    len(header) + 8 * size * size + length
                ):
                    return None
                lut = np.empty((size, size), dtype=np.int64)
                view = memoryview(lut).cast("B")
                if handle.readinto(view) != len(view):
                    return None
                body = handle.read(length)
                if len(body) != length:
                    return None
        except (OSError, ValueError):  # unreadable, or a header that is not one
            return None
        digest = hashlib.sha256(view)
        digest.update(body)
        if digest.hexdigest().encode() != fields[5]:
            return None
        lut.flags.writeable = False
        return pickle.loads(body), lut

    def save(self, states: Tuple[State, ...], lut: np.ndarray) -> None:
        """Publish ``(states, lut)`` atomically, then remove the older files
        of the same calibration (other keys: earlier sources or versions),
        so the cache holds one file per calibration.  A failed write (a
        full disk, a read-only cache) is ignored: the next process runs the
        BFS again."""
        body = pickle.dumps(tuple(states), protocol=pickle.HIGHEST_PROTOCOL)
        view = memoryview(lut).cast("B")
        digest = hashlib.sha256(view)
        digest.update(body)
        header = (
            f"{CLOSURE_MAGIC} {CLOSURE_VERSION} {self.key} {len(states)} {len(body)} "
            f"{digest.hexdigest()}\n"
        ).encode("ascii")
        try:
            atomic_write(self.path, header, view, body)
            stem = self.path.name.rsplit("-", 1)[0]  # <module>.<qualname>-<calibration>
            for older in self.path.parent.glob(f"{stem}-*.closure"):
                if older != self.path:
                    older.unlink(missing_ok=True)
        except OSError:
            pass


def closure_file(cls: type, calibration: Tuple[int, ...]) -> Optional[ClosureFile]:
    """Where ``cls``'s closure at ``calibration`` (e.g. ``(Γ, Φ, Ψ)``) is
    cached, or ``None`` for a class defined outside the ``repro`` package,
    whose source the key cannot pin.

    The key is a sha256 over the format version, the class's module and
    qualified name, the calibration, :func:`source_digest` and the Python
    and NumPy versions.  The file is ``<module>.<qualname>-<calibration>-
    <key[:16]>.closure`` in :func:`closure_cache_dir`.
    """
    if cls.__module__.partition(".")[0] != "repro":
        return None
    name = f"{cls.__module__}.{cls.__qualname__}-" + "-".join(map(str, calibration))
    key = hashlib.sha256(
        "\0".join(
            [
                str(CLOSURE_VERSION),
                name,
                source_digest(),
                "%d.%d.%d" % sys.version_info[:3],
                np.__version__,
            ]
        ).encode()
    ).hexdigest()
    return ClosureFile(closure_cache_dir() / f"{name}-{key[:16]}.closure", key)


#: Closures computed or loaded in this process: ``(class, *calibration) ->
#: (states, read-only (K, K) LUT)``, shared by every instance of the
#: calibration.
_CLOSURE_CACHE: Dict[tuple, Tuple[Tuple[State, ...], np.ndarray]] = {}


def cached_closure(
    cls: type,
    calibration: Tuple[int, ...],
    build: Callable[[], Tuple[List[State], np.ndarray]],
) -> Tuple[Tuple[State, ...], np.ndarray]:
    """``cls``'s closure at ``calibration``: ``(states, read-only LUT)``.

    Served from this process's cache, else loaded from the calibration's
    :func:`closure_file`, else ``build()`` (a :func:`reachable_closure`
    call) runs and its result is written to that file, so a later process
    loads it instead of running the BFS again.  The calibration is every
    parameter the closure depends on, for example ``(Γ, Φ, Ψ)``.
    """
    key = (cls, *calibration)
    cached = _CLOSURE_CACHE.get(key)
    if cached is None:
        stored = closure_file(cls, calibration)
        cached = stored.load() if stored is not None else None
        if cached is None:
            states, lut = build()
            cached = (tuple(states), lut)
            if stored is not None:
                stored.save(*cached)
        _CLOSURE_CACHE[key] = cached
    return cached
