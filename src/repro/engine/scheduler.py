"""The scheduler layer: who interacts with whom, as a pluggable axis.

The probabilistic population-protocol model selects, at every step, an
ordered pair of *distinct* agents.  The paper's idealised scheduler draws
that pair uniformly from the **complete** interaction graph; the scenario
layer (:mod:`repro.scenarios`) generalises the choice to restricted
interaction topologies.  This module defines the common
:class:`PairScheduler` contract and its implementations:

* :class:`PairSampler` — the complete-graph scheduler (the default; every
  trajectory digest in the test suite is pinned against its
  ``pair_block`` draws, which therefore must never change),
* :class:`CycleScheduler` — agents on a ring, interactions across ring
  edges,
* :class:`Grid2DScheduler` — a 2D torus grid, interactions across
  horizontal/vertical edges,
* :class:`RandomRegularScheduler` — a random ``d``-regular (multi)graph,
  built deterministically from a recorded graph seed as the union of
  ``d/2`` random Hamiltonian cycles,
* :class:`PowerLawScheduler` — complete graph with power-law contact
  *weights* (agent ``i`` participates proportionally to ``(i+1)**-alpha``),
  the "heavy-traffic hub" workload.

Every scheduler draws pairs one way only: ``pair_block(count)``, a block
of ``count`` pairs straight from the generator, nothing buffered.  The
per-agent engines draw in blocks of :data:`PAIR_CHUNK` pairs, so a
snapshot is the generator state plus the scheduler's parameters.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro.engine.rng import RngLike, make_rng, restore_rng_state, rng_state
from repro.errors import CheckpointError, ConfigurationError

__all__ = [
    "PAIR_CHUNK",
    "PairScheduler",
    "PairSampler",
    "CycleScheduler",
    "Grid2DScheduler",
    "RandomRegularScheduler",
    "PowerLawScheduler",
]

#: Pairs per ``pair_block`` call in the per-agent engines.  The sequential
#: and fast-batch engines both draw their chunks at this size, so equal
#: seeds give them the same pair stream and bit-identical trajectories.
PAIR_CHUNK = 1 << 14


class PairScheduler(abc.ABC):
    """Common contract of every pair source the agent-space engines accept.

    A scheduler owns the run's randomness generator and produces ordered
    ``(responder, initiator)`` pairs of *distinct* agent indices as aligned
    arrays (:meth:`pair_block`).  Which pairs are *possible* — and with what
    probability — is what subclasses define; snapshot/restore of the
    generator state is shared here.

    Parameters
    ----------
    n:
        Population size; must be at least 2.
    rng:
        Seed or generator.
    """

    __slots__ = ("n", "_rng")

    #: Registry tag of the concrete scheduler, recorded in snapshots so a
    #: checkpoint can never be restored into a different topology silently.
    kind: str = "abstract"

    def __init__(self, n: int, rng: RngLike = None) -> None:
        if n < 2:
            raise ConfigurationError(f"population size must be >= 2, got {n}")
        self.n = int(n)
        self._rng = make_rng(rng)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def pair_block(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return two ``int64`` arrays of length ``count``: one ordered pair
        of distinct agent indices per row, drawn from this scheduler's
        interaction distribution."""

    @property
    def generator(self) -> np.random.Generator:
        """The underlying NumPy generator (shared, not copied)."""
        return self._rng

    # ------------------------------------------------------------------
    # Snapshot / restore (the scheduler half of engine checkpoints)
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Bit-exact snapshot: the generator state, the population size and
        the scheduler ``kind`` (so a snapshot can never silently restore into
        a different topology), plus the subclass's parameters."""
        snapshot = {"kind": self.kind, "n": self.n, "rng": rng_state(self._rng)}
        snapshot.update(self._extra_snapshot())
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        """Rewind this scheduler to a state captured by :meth:`state_snapshot`.

        Snapshots without a ``kind`` tag are complete-graph snapshots from
        older builds and restore anywhere the caller's engine accepts them.
        Older builds also recorded a ``pending`` tail of pre-drawn pairs;
        one that is empty (every tail an engine has written) means nothing,
        and a non-empty one is refused, since no pair is owed any more.
        """
        recorded_kind = snapshot.get("kind")
        if recorded_kind is not None and recorded_kind != self.kind:
            raise CheckpointError(
                f"scheduler snapshot was taken from a {recorded_kind!r} "
                f"scheduler, cannot restore into {self.kind!r}"
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
        self._extra_restore(snapshot)

    def _extra_snapshot(self) -> dict:
        """Scheduler-specific snapshot fields (graph seeds, parameters)."""
        return {}

    def _extra_restore(self, snapshot: dict) -> None:
        """Restore scheduler-specific fields from :meth:`_extra_snapshot`."""

    # ------------------------------------------------------------------
    def _orient(
        self, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assign responder/initiator roles uniformly across an edge batch.

        Sampling an undirected edge and a direction bit yields ordered
        pairs; the direction draw is a separate generator call so every
        edge-sampling scheduler consumes randomness in the same documented
        order (edge indices first, directions second).
        """
        direction = self._rng.integers(0, 2, size=u.shape[0], dtype=np.int64)
        forward = direction == 0
        a = np.where(forward, u, v)
        b = np.where(forward, v, u)
        return a, b

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} kind={self.kind!r} n={self.n}>"


class PairSampler(PairScheduler):
    """Uniform ordered pairs of distinct agents: the complete-graph scheduler.

    This is the paper's scheduler and the library's default.  Its draw
    pattern — all responders, then all initiators, then redraws of the
    colliding initiators — is pinned by every trajectory digest in the test
    suite and reproduced word for word by the fast-batch C kernel, so it
    must not change.
    """

    __slots__ = ()

    kind = "complete"

    def pair_block(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return two arrays of length ``count`` with distinct entries per row."""
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


class CycleScheduler(PairScheduler):
    """Agents on a ring; interactions happen across uniformly random ring
    edges, with a uniformly random responder/initiator orientation.

    Edge ``e`` connects agents ``e`` and ``(e + 1) mod n``, so the sampler
    is two vectorised draws (edge indices, directions) with no rejection.
    """

    __slots__ = ()

    kind = "cycle"

    def pair_block(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        count = int(count)
        edges = self._rng.integers(0, self.n, size=count, dtype=np.int64)
        neighbour = edges + 1
        neighbour[neighbour == self.n] = 0
        return self._orient(edges, neighbour)


class Grid2DScheduler(PairScheduler):
    """A 2D torus grid; interactions across horizontal/vertical grid edges.

    The population is laid out row-major on a ``rows x cols`` torus
    (``n = rows * cols``, both sides at least 2).  The directed edge
    enumeration assigns every agent its right and down edge, so sampling an
    index in ``[0, 2n)`` selects an edge uniformly from that enumeration;
    a second draw orients responder/initiator.

    Parameters
    ----------
    rows:
        Grid height.  ``None`` (default) picks the largest divisor of ``n``
        not exceeding ``sqrt(n)`` (the squarest factorisation).  Populations
        with no ``rows >= 2, cols >= 2`` factorisation (primes, ``n < 4``)
        are rejected — use :class:`CycleScheduler` for those.
    """

    __slots__ = ("rows", "cols")

    kind = "grid2d"

    def __init__(
        self,
        n: int,
        rng: RngLike = None,
        *,
        rows: int = None,
    ) -> None:
        super().__init__(n, rng)
        if rows is None:
            rows = self._squarest_rows(self.n)
            if rows is None:
                raise ConfigurationError(
                    f"population size {self.n} has no rows x cols "
                    "factorisation with both sides >= 2 (prime or < 4); "
                    "choose a composite n or the cycle topology"
                )
        rows = int(rows)
        if rows < 2 or self.n % rows != 0 or self.n // rows < 2:
            raise ConfigurationError(
                f"rows={rows} does not factor n={self.n} into a grid with "
                "both sides >= 2"
            )
        self.rows = rows
        self.cols = self.n // rows

    @staticmethod
    def _squarest_rows(n: int) -> "int | None":
        root = int(np.sqrt(n))
        # Guard against float truncation right at perfect squares.
        while (root + 1) * (root + 1) <= n:
            root += 1
        for rows in range(root, 1, -1):
            if n % rows == 0:
                return rows
        return None

    def pair_block(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        count = int(count)
        k = self._rng.integers(0, 2 * self.n, size=count, dtype=np.int64)
        agent = k >> 1
        horizontal = (k & 1) == 0
        row, col = np.divmod(agent, self.cols)
        col_right = col + 1
        col_right[col_right == self.cols] = 0
        row_down = row + 1
        row_down[row_down == self.rows] = 0
        neighbour = np.where(
            horizontal, row * self.cols + col_right, row_down * self.cols + col
        )
        return self._orient(agent, neighbour)

    def _extra_snapshot(self) -> dict:
        return {"rows": self.rows}

    def _extra_restore(self, snapshot: dict) -> None:
        recorded = int(snapshot.get("rows", self.rows))
        if recorded != self.rows:
            raise CheckpointError(
                f"grid snapshot was taken on a {recorded}-row grid, cannot "
                f"restore into rows={self.rows}"
            )


class RandomRegularScheduler(PairScheduler):
    """A random ``d``-regular multigraph; interactions across its edges.

    The graph is the union of ``d/2`` independent random Hamiltonian cycles
    (each contributes degree 2 to every agent), which is exactly
    ``d``-regular, never has self-loops, and is built with one vectorised
    permutation per cycle.  Parallel edges are possible but exponentially
    rare for ``n >> d``; they merely give the duplicated pair proportionally
    more contact weight.  The construction is driven by a dedicated **graph
    seed** (drawn once from the scheduler's generator at construction), so
    snapshots stay O(1): they record the seed, not the O(d n) edge arrays,
    and restore rebuilds the identical graph.

    Parameters
    ----------
    degree:
        Even contact degree, ``2 <= degree < n``.
    """

    __slots__ = ("degree", "_graph_seed", "_edge_u", "_edge_v")

    kind = "random-regular"

    def __init__(
        self,
        n: int,
        rng: RngLike = None,
        *,
        degree: int = 4,
    ) -> None:
        super().__init__(n, rng)
        degree = int(degree)
        if degree < 2 or degree % 2 != 0:
            raise ConfigurationError(
                f"degree must be an even integer >= 2, got {degree}"
            )
        if degree >= self.n:
            raise ConfigurationError(
                f"degree {degree} needs a population larger than {degree}, "
                f"got n={self.n}"
            )
        self.degree = degree
        self._graph_seed = int(self._rng.integers(0, 2**62))
        self._build_graph()

    def _build_graph(self) -> None:
        graph_rng = np.random.default_rng(self._graph_seed)
        us, vs = [], []
        for _ in range(self.degree // 2):
            perm = graph_rng.permutation(self.n).astype(np.int64)
            us.append(perm)
            vs.append(np.roll(perm, -1))
        self._edge_u = np.concatenate(us)
        self._edge_v = np.concatenate(vs)

    def pair_block(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        count = int(count)
        index = self._rng.integers(
            0, self._edge_u.shape[0], size=count, dtype=np.int64
        )
        return self._orient(self._edge_u[index], self._edge_v[index])

    def _extra_snapshot(self) -> dict:
        return {"degree": self.degree, "graph_seed": self._graph_seed}

    def _extra_restore(self, snapshot: dict) -> None:
        recorded = int(snapshot.get("degree", self.degree))
        if recorded != self.degree:
            raise CheckpointError(
                f"random-regular snapshot was taken at degree {recorded}, "
                f"cannot restore into degree={self.degree}"
            )
        self._graph_seed = int(snapshot["graph_seed"])
        self._build_graph()


class PowerLawScheduler(PairScheduler):
    """Complete graph with power-law contact weights (hub-heavy traffic).

    Each endpoint of a pair is drawn independently with probability
    proportional to ``(i + 1) ** -alpha`` for agent ``i`` (Zipf weights —
    agent 0 is the heaviest hub), colliding pairs resampled like the uniform
    sampler's.  ``alpha = 0`` degenerates to the uniform complete graph
    (though with a different randomness-consumption pattern than
    :class:`PairSampler`, so it is *not* digest-compatible with it).

    Parameters
    ----------
    alpha:
        Skew exponent, ``>= 0``; 1.0 is classic Zipf.
    """

    __slots__ = ("alpha", "_cdf")

    kind = "powerlaw"

    def __init__(
        self,
        n: int,
        rng: RngLike = None,
        *,
        alpha: float = 1.0,
    ) -> None:
        super().__init__(n, rng)
        alpha = float(alpha)
        if not (alpha >= 0.0):
            raise ConfigurationError(f"alpha must be >= 0, got {alpha}")
        self.alpha = alpha
        weights = np.arange(1, self.n + 1, dtype=np.float64) ** (-alpha)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        self._cdf = cdf

    def _draw_endpoints(self, count: int) -> np.ndarray:
        return np.searchsorted(
            self._cdf, self._rng.random(count), side="right"
        ).astype(np.int64)

    def pair_block(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        count = int(count)
        a = self._draw_endpoints(count)
        b = self._draw_endpoints(count)
        collisions = np.flatnonzero(a == b)
        while collisions.size:
            b[collisions] = self._draw_endpoints(collisions.size)
            collisions = collisions[a[collisions] == b[collisions]]
        return a, b

    def _extra_snapshot(self) -> dict:
        return {"alpha": self.alpha}

    def _extra_restore(self, snapshot: dict) -> None:
        recorded = float(snapshot.get("alpha", self.alpha))
        if recorded != self.alpha:
            raise CheckpointError(
                f"powerlaw snapshot was taken at alpha={recorded}, cannot "
                f"restore into alpha={self.alpha}"
            )

