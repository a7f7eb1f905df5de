"""The scheduler: who interacts with whom.

The probabilistic population-protocol model selects, at every step, an
ordered pair of *distinct* agents uniformly from the **complete**
interaction graph.  :class:`PairSampler` is that scheduler: it draws pairs
one way only, ``pair_block(count)``, a block of ``count`` pairs straight
from the generator, nothing buffered.  The per-agent engines draw in
blocks of :data:`PAIR_CHUNK` pairs, so a snapshot is the generator state
plus the population size.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.engine.rng import RngLike, make_rng, restore_rng_state, rng_state
from repro.errors import CheckpointError, ConfigurationError

__all__ = ["PAIR_CHUNK", "PairSampler"]

#: Pairs per ``pair_block`` call in the per-agent engines.  The sequential
#: and fast-batch engines both draw their chunks at this size, so equal
#: seeds give them the same pair stream and bit-identical trajectories.
PAIR_CHUNK = 1 << 14


class PairSampler:
    """Uniform ordered pairs of distinct agents: the complete-graph scheduler.

    A sampler owns the run's randomness generator and produces ordered
    ``(responder, initiator)`` pairs of distinct agent indices as aligned
    arrays (:meth:`pair_block`).  Its draw pattern — all responders, then
    all initiators, then redraws of the colliding initiators — is pinned by
    every trajectory digest in the test suite and reproduced word for word
    by the fast-batch C kernel, so it must not change.

    Parameters
    ----------
    n:
        Population size; must be at least 2.
    rng:
        Seed or generator.
    """

    __slots__ = ("n", "_rng")

    #: Recorded in snapshots; older builds also wrote the tags of retired
    #: schedulers.
    kind = "complete"

    def __init__(self, n: int, rng: RngLike = None) -> None:
        if n < 2:
            raise ConfigurationError(f"population size must be >= 2, got {n}")
        self.n = int(n)
        self._rng = make_rng(rng)

    def pair_block(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return two ``int64`` arrays of length ``count``: one ordered pair
        of distinct agent indices per row."""
        count = int(count)
        a = self._rng.integers(0, self.n, size=count, dtype=np.int64)
        b = self._rng.integers(0, self.n, size=count, dtype=np.int64)
        collisions = np.flatnonzero(a == b)
        # Resample collisions until none remain; expected number of rounds is
        # ~1/(1 - 1/n), i.e. essentially one.
        while collisions.size:
            b[collisions] = self._rng.integers(
                0, self.n, size=collisions.size, dtype=np.int64
            )
            collisions = collisions[a[collisions] == b[collisions]]
        return a, b

    @property
    def generator(self) -> np.random.Generator:
        """The underlying NumPy generator (shared, not copied)."""
        return self._rng

    # ------------------------------------------------------------------
    # Snapshot / restore (the scheduler half of engine checkpoints)
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Bit-exact snapshot: the ``kind`` tag, the population size and the
        generator state."""
        return {"kind": self.kind, "n": self.n, "rng": rng_state(self._rng)}

    def state_restore(self, snapshot: dict) -> None:
        """Rewind this sampler to a state captured by :meth:`state_snapshot`.

        Snapshots without a ``kind`` tag come from older builds and restore
        as complete-graph snapshots; any other tag names a retired scheduler
        and is refused.  Older builds also recorded a ``pending`` tail of
        pre-drawn pairs; one that is empty (every tail an engine has written)
        means nothing, and a non-empty one is refused, since no pair is owed
        any more.
        """
        recorded_kind = snapshot.get("kind")
        if recorded_kind is not None and recorded_kind != self.kind:
            raise CheckpointError(
                f"scheduler snapshot was taken from a {recorded_kind!r} "
                "scheduler of the retired scenario layer (restricted "
                "topologies, churn, faults), which no build continues; only "
                "complete-graph runs resume"
            )
        if int(snapshot["n"]) != self.n:
            raise CheckpointError(
                f"sampler snapshot was taken for population size "
                f"{snapshot['n']}, cannot restore into n={self.n}"
            )
        pending = snapshot.get("pending", {})
        owed = (pending.get("a"), pending.get("b"))
        owed += (snapshot.get("pending_a"), snapshot.get("pending_b"))
        if any(part is not None and len(part) for part in owed):
            raise CheckpointError(
                "scheduler snapshot holds a non-empty pending tail of pre-drawn "
                "pairs; schedulers no longer buffer pairs, so it cannot resume"
            )
        restore_rng_state(self._rng, snapshot["rng"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PairSampler n={self.n}>"
