"""Shared machinery for the simulation engines.

:class:`BaseEngine` factors out everything that does not depend on how the
population is represented (per-agent array vs. state counts): the compiled
:class:`~repro.engine.table.TransitionTable` obtained from
``protocol.compile()``, ever-occupied state tracking, count bookkeeping
helpers, convergence-friendly accessors, and the one check loop every run
is driven by (:func:`drive_checks`, with its fixed and adaptive cadences).

Transition and output memoisation live in the shared table, **not** in the
engines: every engine built on the same protocol instance consumes the same
compiled ``delta`` dict / packed lookup array / output maps, so compiling a
state pair once serves the scalar loops, the vectorised NumPy paths and the
C kernel alike.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike
from repro.errors import CheckpointError, ConfigurationError
from repro.types import State

__all__ = [
    "AdaptiveCadence",
    "BaseEngine",
    "Cadence",
    "SNAPSHOT_VERSION",
    "cadence_for",
    "drive_checks",
    "run_checks",
]

#: Version stamp embedded in every engine snapshot.  Bump when the snapshot
#: layout changes incompatibly; :meth:`BaseEngine.restore` refuses snapshots
#: from another version — restoring guessed fields would silently change
#: trajectories, the one thing a checkpoint must never do.
SNAPSHOT_VERSION = 1


class BaseEngine(abc.ABC):
    """Common interface and bookkeeping for population-protocol engines.

    Concrete engines must implement :meth:`_perform_steps` (advance the
    population by a number of interactions) and :meth:`state_count_items`
    (iterate over ``(state_id, count)`` pairs with non-zero count).
    """

    #: Whether the engine simulates the sequential model exactly.  Approximate
    #: engines (``TauLeapEngine``, ``MeanFieldEngine``) set this to ``False``
    #: and must never be used for correctness claims.
    exact: bool = True

    #: Scenario capability tags this engine supports, compared against
    #: :meth:`repro.scenarios.scenario.Scenario.requirements` by
    #: :func:`repro.engine.dispatch.scenario_capable`.  The default — the
    #: empty set — means "complete graph, fault-free, static population
    #: only", which is correct for every count-space engine (their
    #: hypergeometric splits assume uniform complete-graph pairing).
    scenario_capabilities: frozenset = frozenset()

    def __init__(self, protocol: PopulationProtocol, n: int, rng: RngLike = None) -> None:
        if n < 2:
            raise ConfigurationError(f"population size must be >= 2, got {n}")
        self.protocol = protocol
        self.n = int(n)
        #: The protocol's compiled transition-table IR, shared across every
        #: engine built on the same protocol instance.
        self.table = protocol.compile()
        self.encoder = self.table.encoder
        self.interactions = 0
        # Distinct states occupied by at least one agent at any point of this
        # run -- per-run state, deliberately NOT part of the shared table.
        self._ever_occupied: set = set()

    # ------------------------------------------------------------------
    # Abstract representation-specific pieces
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _perform_steps(self, count: int) -> None:
        """Advance the simulation by ``count`` interactions."""

    @abc.abstractmethod
    def state_count_items(self) -> List[Tuple[int, int]]:
        """Return ``(state_id, count)`` pairs for states with count > 0."""

    # ------------------------------------------------------------------
    # Occupancy tracking
    # ------------------------------------------------------------------
    def _mark_occupied(self, sid: int) -> None:
        """Record that ``sid`` has been occupied at some point of this run.

        Engines call this for every initial state and for every transition
        output that differs from its input; together with the invariant that
        an agent's current state is always either initial or a previously
        recorded changed output, this tracks the exact ever-occupied set.
        """
        self._ever_occupied.add(sid)

    def _encode_initial(self, state: State) -> int:
        sid = self.table.encode(state)
        self._mark_occupied(sid)
        return sid

    # ------------------------------------------------------------------
    # Public inspection API
    # ------------------------------------------------------------------
    @property
    def parallel_time(self) -> float:
        """Interactions divided by the population size (the paper's time unit)."""
        return self.interactions / self.n

    def state_counts(self) -> Dict[State, int]:
        """Current multiset of states as ``{state: count}`` (non-zero only)."""
        return {
            self.encoder.decode(sid): count for sid, count in self.state_count_items()
        }

    def count_of(self, state: State) -> int:
        """Number of agents currently in ``state``."""
        sid = self.encoder.try_encode(state)
        if sid is None:
            return 0
        for candidate, count in self.state_count_items():
            if candidate == sid:
                return count
        return 0

    def count_vector(self) -> np.ndarray:
        """Dense current counts indexed by state id.

        The returned ``int64`` array has length exactly ``len(self.encoder)``
        and ``count_vector()[sid]`` agents in the state registered under
        ``sid``.  Engines with a native dense representation (the count
        engines, the batched per-agent engine's cached bincount) return
        their own buffer — treat the array as **read-only** and do not hold
        it across simulation steps.  This is the substrate the compiled
        state-property views (:mod:`repro.engine.views`) reduce against.
        """
        counts = np.zeros(len(self.encoder), dtype=np.int64)
        for sid, count in self.state_count_items():
            counts[sid] = count
        return counts

    def count_where(self, predicate: Callable[[State], bool]) -> int:
        """Number of agents whose state satisfies ``predicate``.

        Decodes every occupied state and evaluates ``predicate`` in Python
        *per call*; observation loops that run every check should compile
        the predicate into a :class:`~repro.engine.views.PredicateView`
        once and use its :meth:`~repro.engine.views.PredicateView.count`
        reduction instead.
        """
        total = 0
        for sid, count in self.state_count_items():
            if predicate(self.encoder.decode(sid)):
                total += count
        return total

    def counts_by_output(self) -> Dict[str, int]:
        """Aggregate current counts by output symbol."""
        totals: Dict[str, int] = {}
        output_of = self.table.output_of
        for sid, count in self.state_count_items():
            symbol = output_of(sid)
            totals[symbol] = totals.get(symbol, 0) + count
        return totals

    def leader_count(self) -> int:
        """Number of agents whose output symbol is the leader symbol."""
        from repro.engine.protocol import LEADER_OUTPUT

        return self.counts_by_output().get(LEADER_OUTPUT, 0)

    def distinct_states(self) -> List[State]:
        """States currently occupied by at least one agent."""
        return [self.encoder.decode(sid) for sid, _ in self.state_count_items()]

    @property
    def states_ever_occupied(self) -> int:
        """Number of distinct states occupied at any point of the run.

        This is the empirical counterpart of the protocol's space complexity
        (the paper's "number of states utilised by each agent").
        """
        return len(self._ever_occupied)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Bit-exact snapshot of this engine's run state.

        The snapshot captures everything the trajectory depends on beyond
        the (pure, deterministic) protocol itself: the configuration
        (per-agent array or count vector, engine-specific), the interaction
        counter, the ever-occupied state set, the full RNG state — including
        any pre-drawn randomness buffers (pair blocks, uniform blocks) — and
        the registered state-identifier layout, which lazily discovering
        engines depend on.

        The invariant (pinned by ``tests/test_engine_checkpoint.py``): a run
        interrupted at any driver boundary (a ``run``/``run_until`` check
        point — never inside ``_perform_steps``) and resumed through
        :meth:`restore` produces a trajectory bit-for-bit identical to the
        uninterrupted run, provided the driver issues the same sequence of
        step counts afterwards.

        The returned dictionary owns copies of all mutable state and is
        picklable (it contains protocol state objects, so it is generally
        *not* JSON-serialisable); persist it with
        :func:`repro.experiments.io.write_checkpoint`.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "engine": type(self).__name__,
            "protocol": self.protocol.name,
            "n": self.n,
            "interactions": self.interactions,
            "encoder_states": self.encoder.states(),
            "occupied_ids": self._occupied_ids(),
            "payload": self._state_snapshot(),
        }

    def restore(self, snapshot: dict) -> None:
        """Rewind this engine to a state captured by :meth:`snapshot`.

        The engine must have been constructed for the same protocol (by
        name), population size and engine class as the snapshot's source;
        mismatches raise :class:`~repro.errors.CheckpointError`.  Restoring
        first re-registers the snapshot's states in its recorded order, so
        the state-identifier layout — which the count engines' sampling
        order and the packed lookup tables depend on — is reproduced exactly
        even on a freshly compiled protocol instance.
        """
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"snapshot version {version!r} is not supported by this "
                f"build (expected {SNAPSHOT_VERSION})"
            )
        if snapshot.get("engine") != type(self).__name__:
            raise CheckpointError(
                f"snapshot was taken from engine {snapshot.get('engine')!r}, "
                f"cannot restore into {type(self).__name__}"
            )
        if snapshot.get("protocol") != self.protocol.name:
            raise CheckpointError(
                f"snapshot was taken from protocol {snapshot.get('protocol')!r}, "
                f"cannot restore into {self.protocol.name!r}"
            )
        if int(snapshot.get("n", -1)) != self.n:
            raise CheckpointError(
                f"snapshot was taken at population size {snapshot.get('n')}, "
                f"cannot restore into n={self.n}"
            )
        # Reproduce the state-identifier layout.  Registration is append-only
        # and deterministic (canonical states, then initial states, then
        # discovery order), so encoding the recorded states in order must
        # yield their recorded identifiers; anything else means the target
        # table has an incompatible compilation history.
        for expected_id, state in enumerate(snapshot["encoder_states"]):
            sid = self.table.encode(state)
            if sid != expected_id:
                raise CheckpointError(
                    f"state {state!r} registered under id {sid}, but the "
                    f"snapshot recorded id {expected_id}; the protocol "
                    "instance has an incompatible state-registration history "
                    "(restore into a freshly constructed protocol)"
                )
        self.interactions = int(snapshot["interactions"])
        self._restore_occupied(snapshot["occupied_ids"])
        self._state_restore(snapshot["payload"])

    @classmethod
    def from_snapshot(
        cls, protocol: PopulationProtocol, snapshot: dict, **engine_kwargs
    ) -> "BaseEngine":
        """Construct an engine for ``protocol`` and restore ``snapshot``.

        Convenience wrapper for the common resume flow: build the engine
        normally (construction consumes no randomness) and overwrite its
        run state from the snapshot.
        """
        engine = cls(protocol, int(snapshot["n"]), **engine_kwargs)
        engine.restore(snapshot)
        return engine

    @abc.abstractmethod
    def _state_snapshot(self) -> dict:
        """Engine-specific snapshot payload (copies, picklable)."""

    @abc.abstractmethod
    def _state_restore(self, payload: dict) -> None:
        """Restore the engine-specific payload from :meth:`_state_snapshot`.

        Called after the encoder layout, interaction counter and occupancy
        set have been restored, so ``len(self.encoder)`` already covers every
        identifier in the payload.
        """

    def _occupied_ids(self) -> List[int]:
        """Sorted ever-occupied state ids (overridden by mask-based engines)."""
        return sorted(int(sid) for sid in self._ever_occupied)

    def _restore_occupied(self, ids) -> None:
        """Restore the ever-occupied set (overridden by mask-based engines)."""
        self._ever_occupied = {int(sid) for sid in ids}

    # ------------------------------------------------------------------
    # Run drivers
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by exactly one interaction."""
        self._perform_steps(1)

    def run(self, interactions: int) -> None:
        """Advance the simulation by ``interactions`` interactions."""
        if interactions < 0:
            raise ConfigurationError(
                f"interaction count must be non-negative, got {interactions}"
            )
        self._perform_steps(int(interactions))

    def run_parallel_time(self, units: float) -> None:
        """Advance by ``units`` parallel-time units (``units * n`` interactions)."""
        self.run(int(round(units * self.n)))

    def run_until(
        self,
        predicate: Callable[["BaseEngine"], bool],
        *,
        max_interactions: int,
        check_every: Optional[int] = None,
        on_check: Optional[Callable[["BaseEngine"], None]] = None,
    ) -> bool:
        """Run until ``predicate(engine)`` holds or a budget is exhausted.

        Parameters
        ----------
        predicate:
            Convergence condition, evaluated every ``check_every`` interactions.
        max_interactions:
            Hard budget counted from the engine's *current* interaction count.
        check_every:
            Evaluation period; defaults to ``n`` (once per parallel-time unit).
        on_check:
            Optional observer invoked at every evaluation point (recorders).

        Returns
        -------
        bool
            ``True`` if the predicate held at some evaluation point.
        """
        checks = drive_checks(
            self,
            predicate,
            self.interactions + int(max_interactions),
            cadence_for(check_every, self.n),
            None if on_check is None else lambda engine, _: on_check(engine),
        )
        return run_checks([checks], lambda chunks: self.run(chunks[0]))[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} protocol={self.protocol.name!r} n={self.n} "
            f"interactions={self.interactions}>"
        )


# ----------------------------------------------------------------------
# The drive loop
# ----------------------------------------------------------------------
#: A check cadence: called at every check (after the predicate failed), it
#: returns the period the next chunk is clipped from.
Cadence = Callable[[BaseEngine], int]

#: Adaptive cadence: base period ``n // 4``, capped at ``4 n`` so that
#: convergence is detected within a bounded parallel-time lag.
_AUTO_BASE_DIVISOR = 4
_AUTO_MAX_UNITS = 4


class AdaptiveCadence:
    """The ``check_every="auto"`` geometric back-off.

    The period doubles while the output census (``counts_by_output()``,
    O(occupied) on the count-space engines) is unchanged between checks
    and snaps back to the base the moment it changes.  ``period`` and
    ``signature`` are the whole state; checkpoints record them so a
    resumed run issues the uninterrupted run's chunk sequence.
    """

    def __init__(
        self,
        n: int,
        period: Optional[int] = None,
        signature: Optional[Dict[str, int]] = None,
    ) -> None:
        self.base = max(1, n // _AUTO_BASE_DIVISOR)
        self.cap = max(self.base, _AUTO_MAX_UNITS * n)
        self.period = self.base if period is None else int(period)
        self.signature = None if signature is None else dict(signature)

    def __call__(self, engine: BaseEngine) -> int:
        current = engine.counts_by_output()
        if current == self.signature:
            self.period = min(2 * self.period, self.cap)
        else:
            self.signature = current
            self.period = self.base
        return self.period

    def state(self) -> dict:
        """The controller state a checkpoint records."""
        return {"period": self.period, "signature": self.signature}


def cadence_for(check_every, n: int, state: Optional[dict] = None) -> Cadence:
    """The cadence of a ``check_every`` value: ``None`` checks every ``n``
    interactions, an integer every that many, ``"auto"`` adaptively
    (continuing the recorded controller ``state`` when given)."""
    if check_every == "auto":
        return AdaptiveCadence(n, **(state or {}))
    period = n if check_every is None else check_every
    if isinstance(period, str) or period <= 0:
        raise ConfigurationError(
            f"check_every must be a positive interaction period or 'auto', "
            f"got {check_every!r}"
        )
    return lambda engine: period


def drive_checks(
    engine: BaseEngine,
    predicate: Callable[[BaseEngine], bool],
    deadline: int,
    cadence: Cadence,
    observer: Optional[Callable[[BaseEngine, bool], None]] = None,
) -> Generator[int, None, bool]:
    """The check loop every run is driven by.

    Each step — the first at the starting position — runs
    ``observer(engine, aligned)``, then ``predicate(engine)`` (returning
    ``True`` when it holds), then ``cadence(engine)``, and yields the next
    chunk: the period, clipped to ``deadline``.  The caller advances the
    engine by exactly that chunk.  At or past the deadline it returns
    ``False``.  ``aligned`` is false for a check reached through a clipped
    chunk: that configuration is an artifact of this run's budget, so a
    checkpoint written there could not resume a longer run bit-exactly.
    """
    aligned = True
    while True:
        if observer is not None:
            observer(engine, aligned)
        if predicate(engine):
            return True
        period = cadence(engine)
        remaining = deadline - engine.interactions
        if remaining <= 0:
            return False
        aligned = remaining >= period
        yield min(period, remaining)


def run_checks(
    checks: Sequence[Generator[int, None, bool]],
    advance: Callable[[List[int]], None],
) -> List[bool]:
    """Drive :func:`drive_checks` generators in lockstep; their verdicts.

    ``advance(chunks)`` must advance row ``r`` by ``chunks[r]``
    interactions; finished rows get ``0``.  One generator with
    ``advance = lambda chunks: engine.run(chunks[0])`` is a scalar run.
    """
    verdicts: List[Optional[bool]] = [None] * len(checks)
    chunks = [0] * len(checks)
    while True:
        for row, verdict in enumerate(verdicts):
            if verdict is None:
                try:
                    chunks[row] = next(checks[row])
                except StopIteration as stop:
                    chunks[row], verdicts[row] = 0, stop.value
        if all(verdict is not None for verdict in verdicts):
            return verdicts
        advance(chunks)
