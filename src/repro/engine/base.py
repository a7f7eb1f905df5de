"""Shared machinery for the simulation engines.

:class:`BaseEngine` factors out everything that does not depend on how the
population is represented (per-agent array vs. state counts): the compiled
:class:`~repro.engine.table.TransitionTable` obtained from
``protocol.compile()``, the per-state ledger (the live count vector and
the ever-occupied byte mask, both indexed by state id), the inspection
accessors and snapshots derived from it, and the one check loop every run
is driven by (:func:`drive_checks`, at one fixed check period).

Transition and output memoisation live in the shared table, **not** in the
engines: every engine built on the same protocol instance consumes the same
compiled ``delta`` dict / packed lookup array / output maps, so compiling a
state pair once serves the scalar loops, the vectorised NumPy paths and the
C kernel alike.
"""

from __future__ import annotations

import abc
import operator
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.protocol import PopulationProtocol, initial_count_items
from repro.engine.rng import RngLike
from repro.errors import CheckpointError, ConfigurationError
from repro.types import State

__all__ = [
    "BaseEngine",
    "SNAPSHOT_VERSION",
    "check_period",
    "drive_checks",
]

#: Version stamp embedded in every engine snapshot.  Bump when the snapshot
#: layout changes incompatibly; :meth:`BaseEngine.restore` refuses snapshots
#: from an unknown version — restoring guessed fields would silently change
#: trajectories, the one thing a checkpoint must never do.  Version 1 (the
#: whole layout, sorted occupied ids, dense counts) is still read.
SNAPSHOT_VERSION = 2


class BaseEngine(abc.ABC):
    """Common interface and bookkeeping for population-protocol engines.

    Concrete engines implement :meth:`_perform_steps` (advance the
    population by a number of interactions) and write every move into the
    ledger: ``_counts`` (``int64``, agents per state id) and ``_seen``
    (``uint8``, 1 for every state occupied at some point of the run).  Both
    are sized to ``table.capacity`` by :meth:`_ensure_capacity`, and
    :meth:`count_vector`, :attr:`states_ever_occupied` and the snapshot's
    occupancy bits are read from them here.  The compiled kernels take the
    two arrays by address.
    """

    #: Scenario capability tags this engine supports, compared against
    #: :meth:`repro.scenarios.scenario.Scenario.requirements` by
    #: :func:`repro.engine.dispatch.scenario_capable`.  The default — the
    #: empty set — means "complete graph, fault-free, static population
    #: only", which is correct for every count-space engine (their
    #: hypergeometric splits assume uniform complete-graph pairing).
    scenario_capabilities: frozenset = frozenset()

    #: Whether no trajectory of this engine depends on its table's state-id
    #: layout: it draws agents, never state ids, and ids only index the
    #: lookup table.  :meth:`restore` then maps a snapshot's recorded ids
    #: onto its table (a snapshot of another layout still resumes), so its
    #: snapshot payload keeps the configuration as per-agent ids in
    #: ``"agent_states"``; any other engine's snapshot must match the
    #: table's layout exactly.
    layout_free: bool = False

    def __init__(
        self, protocol: PopulationProtocol, n: int, rng: RngLike = None, scenario=None
    ) -> None:
        if n < 2:
            raise ConfigurationError(f"population size must be >= 2, got {n}")
        self.protocol = protocol
        self.n = int(n)
        if scenario is not None:
            # Imported lazily: repro.scenarios imports the scheduler module,
            # whose package-level import would otherwise cycle through here.
            from repro.scenarios.scenario import active_scenario

            scenario = active_scenario(scenario)
        #: The active scenario, or ``None`` in the idealised world.
        self._scenario = scenario
        #: The protocol's compiled transition-table IR, shared across every
        #: engine built on the same protocol instance; its layout is the
        #: protocol's alone (see repro.engine.table).
        self.table = protocol.compile()
        self.encoder = self.table.encoder
        self.interactions = 0
        # The per-state ledger -- per-run state, deliberately NOT part of the
        # shared table, but sized to its capacity (see _ensure_capacity).
        self._counts = np.zeros(0, dtype=np.int64)
        self._seen = np.zeros(0, dtype=np.uint8)

    # ------------------------------------------------------------------
    # Abstract representation-specific pieces
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _perform_steps(self, count: int) -> None:
        """Advance the simulation by ``count`` interactions."""

    # ------------------------------------------------------------------
    # The per-state ledger
    # ------------------------------------------------------------------
    def _ensure_capacity(self) -> None:
        """Grow ``_counts`` and ``_seen`` to the shared table's capacity,
        into new arrays (a kernel holding their addresses rebinds)."""
        missing = self.table.capacity - self._seen.shape[0]
        if missing > 0:
            self._counts = np.concatenate((self._counts, np.zeros(missing, np.int64)))
            self._seen = np.concatenate((self._seen, np.zeros(missing, np.uint8)))

    def _count_initial(self) -> None:
        """Enter the protocol's initial ``(state, count)`` items in the
        ledger, registering the states in order and marking them seen (the
        count-batch engine's construction)."""
        for state, count in initial_count_items(self.protocol, self.n):
            sid = self.table.encode(state)
            self._ensure_capacity()
            self._counts[sid] += count
            self._seen[sid] = 1

    def _count_agents(self, agent_states) -> None:
        """Rewrite the ledger's counts, in place, as a bincount of per-agent
        state ids, and mark the occupied states seen (the per-agent
        engines' construction and restore, where it changes no bit)."""
        self._ensure_capacity()
        self._counts[:] = np.bincount(agent_states, minlength=self._counts.shape[0])
        self._seen[self._counts > 0] = 1

    def count_vector(self) -> np.ndarray:
        """Dense current counts indexed by state id.

        The returned ``int64`` array has length exactly ``len(self.encoder)``
        and ``count_vector()[sid]`` agents in the state registered under
        ``sid``.  Every engine keeps the ledger live as it steps, so
        this is a view of it and an inspection costs ``O(k)`` in the
        registered states, never ``O(n)`` — treat the array as
        **read-only** and do not hold it across simulation steps.  This is
        the substrate of every inspection method below and of the compiled
        state-property views (:mod:`repro.engine.views`).
        """
        self._ensure_capacity()
        return self._counts[: len(self.encoder)]

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

    def state_count_items(self) -> List[Tuple[int, int]]:
        """``(state_id, count)`` pairs for states with count > 0, by id."""
        counts = self.count_vector()
        occupied = np.flatnonzero(counts)
        return list(zip(occupied.tolist(), counts[occupied].tolist()))

    def count_of(self, state: State) -> int:
        """Number of agents currently in ``state``."""
        sid = self.encoder.try_encode(state)
        return 0 if sid is None else int(self.count_vector()[sid])

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
        return self.table.aggregate_counts(self.count_vector())

    def leader_count(self) -> int:
        """Number of agents whose output symbol is the leader symbol."""
        from repro.engine.protocol import LEADER_OUTPUT

        return self.counts_by_output().get(LEADER_OUTPUT, 0)

    def distinct_states(self) -> List[State]:
        """States currently occupied by at least one agent."""
        decode = self.encoder.decode
        return [decode(sid) for sid in np.flatnonzero(self.count_vector()).tolist()]

    @property
    def states_ever_occupied(self) -> int:
        """Number of distinct states occupied at any point of the run.

        This is the empirical counterpart of the protocol's space complexity
        (the paper's "number of states utilised by each agent").
        """
        return int(np.count_nonzero(self._seen))

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Bit-exact snapshot of this engine's run state.

        The snapshot captures everything the trajectory depends on beyond
        the (pure, deterministic) protocol itself: the configuration
        (per-agent array or count vector, engine-specific), the interaction
        counter, the ever-occupied mask, the full RNG state (no engine
        keeps pre-drawn randomness between calls, so the generator state is
        all of it) and the registered state-identifier layout, which lazily
        discovering engines depend on.

        Its size follows what the run occupies, not what the protocol could
        reach.  The layout is stored as ``canonical``, the
        ``(count, sha256)`` of the table's canonical prefix
        (:attr:`~repro.engine.table.TransitionTable.canonical_count`, which
        every fresh table of the protocol rebuilds), plus ``encoder_tail``,
        the states registered after it; for protocols without a closure
        the tail is the whole layout.  ``occupied`` is the
        seen mask as ``np.packbits`` over the layout.  The count
        engines store their counts sparse (occupied ids and values as raw
        little-endian bytes); the per-agent payloads are O(n) by nature.

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
        prefix = self.table.canonical_count
        tail = self.encoder.states(prefix)
        self._ensure_capacity()
        return {
            "version": SNAPSHOT_VERSION,
            "engine": type(self).__name__,
            "protocol": self.protocol.name,
            "n": self.n,
            "interactions": self.interactions,
            "canonical": (prefix, self.table.canonical_digest()),
            "encoder_tail": tail,
            "occupied": np.packbits(self._seen[: prefix + len(tail)]).tobytes(),
            "payload": self._state_snapshot(),
        }

    def restore(self, snapshot: dict) -> None:
        """Rewind this engine to a state captured by :meth:`snapshot`.

        The engine must have been constructed for the same protocol (by
        name), population size and engine class as the snapshot's source;
        mismatches raise :class:`~repro.errors.CheckpointError`.  Restoring
        first checks the canonical prefix's digest against this table's and
        re-registers the snapshot's tail states in their recorded order, so
        the state-identifier layout — which the count engines' sampling
        order and the packed lookup tables depend on — is reproduced exactly
        even on a freshly compiled protocol instance.  A layout-free engine
        instead maps the recorded ids (the ever-occupied bits and its
        per-agent ``agent_states`` payload) onto its own table, so a
        snapshot taken on a lazily laid-out table resumes onto the closure
        table.  Version-1 snapshots (the whole layout and sorted occupied
        ids) are restored too.
        """
        version = snapshot.get("version")
        if version not in (1, SNAPSHOT_VERSION):
            raise CheckpointError(
                f"snapshot version {version!r} is not supported by this "
                f"build (expected 1 or {SNAPSHOT_VERSION})"
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
        if version == 1:
            start, layout = 0, snapshot["encoder_states"]
            occupied = snapshot["occupied_ids"]
        else:
            (start, digest), layout = snapshot["canonical"], snapshot["encoder_tail"]
            ours = (self.table.canonical_count, self.table.canonical_digest())
            if start and (start, digest) != ours:
                raise CheckpointError(
                    f"the snapshot's canonical state prefix ({start} states, "
                    f"sha256 {digest}) does not match this protocol's "
                    f"({ours[0]} states, sha256 {ours[1]}); restore into a "
                    "freshly constructed protocol with the original parameters"
                )
            if not start and ours[0] and not self.layout_free:
                raise CheckpointError(
                    "the snapshot was taken on the retired lazily discovered "
                    f"state layout (no canonical prefix), but this protocol's "
                    f"table is laid out over its {ours[0]} closure states; "
                    f"{type(self).__name__} samples by state id, so the run "
                    "cannot continue on this layout (rerun it from its seed)"
                )
            bits = np.frombuffer(snapshot["occupied"], dtype=np.uint8)
            occupied = np.flatnonzero(np.unpackbits(bits, count=start + len(layout)))
        # Reproduce the rest of the layout.  Registration is append-only
        # and deterministic (closure states, then initial states, then
        # discovery order), so encoding the recorded states in order yields
        # their recorded identifiers on a table with the snapshot's
        # compilation history.  A layout-free engine may sit on another
        # layout (a snapshot of a lazily laid-out table resumed onto the
        # closure table): its recorded ids are mapped onto this table's.
        ids = np.arange(start + len(layout))
        for expected_id, state in enumerate(layout, start):
            ids[expected_id] = self.table.encode(state)
        payload = snapshot["payload"]
        moved = np.flatnonzero(ids != np.arange(len(ids)))
        if moved.size:
            if not self.layout_free:
                recorded = int(moved[0])
                raise CheckpointError(
                    f"state {layout[recorded - start]!r} registered under id "
                    f"{ids[recorded]}, but the snapshot recorded id {recorded}; "
                    "the protocol instance has an incompatible state-"
                    "registration history (restore into a freshly "
                    "constructed protocol)"
                )
            occupied = ids[np.asarray(occupied, dtype=np.int64)]
            payload = {**payload, "agent_states": ids[np.asarray(payload["agent_states"])]}
        self.interactions = int(snapshot["interactions"])
        self._ensure_capacity()
        self._seen[:] = 0
        self._seen[np.asarray(occupied, dtype=np.int64)] = 1
        self._state_restore(payload)

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

        Called after the encoder layout, interaction counter and seen mask
        have been restored, so ``len(self.encoder)`` already covers every
        identifier in the payload and the ledger is sized to it.
        """

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
        return drive_checks(
            self,
            predicate,
            self.interactions + int(max_interactions),
            check_period(check_every, self.n),
            None if on_check is None else lambda engine, _: on_check(engine),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} protocol={self.protocol.name!r} n={self.n} "
            f"interactions={self.interactions}>"
        )


# ----------------------------------------------------------------------
# The drive loop
# ----------------------------------------------------------------------
def check_period(check_every, n: int) -> int:
    """The interaction period of a ``check_every`` value: ``None`` checks
    every ``n`` interactions, a positive integer every that many."""
    try:
        # operator.index admits ints and NumPy integers only: a fractional
        # period would truncate to a zero-interaction chunk and never end.
        period = n if check_every is None else operator.index(check_every)
    except TypeError:
        period = 0
    if period <= 0:
        raise ConfigurationError(
            f"check_every must be a positive interaction period, got {check_every!r}"
        )
    return period


def drive_checks(
    engine: BaseEngine,
    predicate: Callable[[BaseEngine], bool],
    deadline: int,
    period: int,
    observer: Optional[Callable[[BaseEngine, bool], None]] = None,
) -> bool:
    """The check loop every run is driven by.

    Each step — the first at the starting position — runs
    ``observer(engine, aligned)``, then ``predicate(engine)`` (returning
    ``True`` when it holds), and advances the engine by the next chunk:
    ``period`` interactions, clipped to ``deadline``.  At or past the
    deadline it returns ``False``.  ``aligned`` is false for a check
    reached through a clipped chunk: that configuration is an artifact of
    this run's budget, so a checkpoint written there could not resume a
    longer run bit-exactly.
    """
    aligned = True
    while True:
        if observer is not None:
            observer(engine, aligned)
        if predicate(engine):
            return True
        remaining = deadline - engine.interactions
        if remaining <= 0:
            return False
        aligned = remaining >= period
        engine.run(min(period, remaining))
