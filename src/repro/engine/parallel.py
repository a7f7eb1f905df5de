"""Multi-seed / multi-size sweep drivers: the work-stealing sweep scheduler.

Experiments repeat each configuration across many seeds and several
population sizes.  :func:`run_many` executes such a sweep either serially or
on a process pool.  Protocol *factories* (rather than protocol instances) are
passed around so that each worker builds its own protocol — protocols carry
parameter objects derived from ``n`` and are cheap to construct:

    >>> from repro.protocols.slow import SlowLeaderElection
    >>> points = run_many(lambda n: SlowLeaderElection(), [8, 16],
    ...                   repetitions=2, max_parallel_time=500.0)
    >>> [(p.n, p.result.converged) for p in points]
    [(8, True), (8, True), (16, True), (16, True)]

The engine is an explicit sweep parameter: pass ``engine="auto"`` to let
:func:`repro.engine.dispatch.auto_engine` pick the fastest exact engine per
population size (the choice can differ between the sizes of one sweep — a
``ns=[10^4, 10^7]`` sweep runs the small size on the fast-batch kernel and
the large one on the configuration-space ``countbatch`` engine).  Engine
names and classes both pickle, so the parameter survives the process pool
untouched.

How a sweep is scheduled
========================

The scheduler turns the job list into *work units* and drains them through
``min(workers, available CPUs, len(pending))`` pool workers (available
CPUs come from :func:`repro.engine.cpus.available_cpus` — the scheduler
affinity mask capped by ``REPRO_MAX_WORKERS``, so a containerised CI with
a CPU quota is not oversubscribed).  Work units are pulled from a shared
queue as workers free up — work stealing at unit granularity — and each
completed unit is recorded (and, with a store, persisted) **as it
finishes**, in completion order, not submission order.  A crash or kill
therefore loses at most the units in flight; everything recorded before
the interrupt is already on disk.

The pool itself comes in two flavours, selected by ``backend=``:
``"process"`` workers (full isolation, factories and results pickled
across the boundary) and ``"thread"`` workers — plain threads in this
process, useful because the compiled kernel engines spend their hot loops
inside GIL-*releasing* ctypes calls, so threads deliver the same
parallelism with no pickling, one shared kernel-build cache and one
in-process store handle.  The default ``backend="auto"`` picks threads
exactly when every cell resolves to a GIL-releasing kernel engine
(:func:`repro.engine.dispatch.releases_gil`) and processes otherwise.
Either way the cells themselves are bit-identical to serial execution.
Thread-backend workers running replica-vectorised mega-cells may each
drive a multi-threaded kernel sweep (``kernel_threads``); the scheduler
does not divide one budget between the two layers — cap the product via
``REPRO_MAX_WORKERS`` / ``REPRO_KERNEL_THREADS`` when oversubscription
matters.

Each size's engine is resolved once per sweep, and that one resolution
decides both the ``"auto"`` backend and how the size's cells group.  When
several pending cells share ``(protocol, n, engine)``, the scheduler
groups them into one of two unit kinds:

* a *mega-cell* when the resolved engine is replica-capable
  (:func:`repro.engine.dispatch.replica_capable` — the configuration-space
  ``CountBatchEngine``): one
  :class:`~repro.engine.count_batch.ReplicatedCountBatchEngine` advances
  all R seeds as an (R, k) count matrix, paying protocol construction, the
  survival curve and the per-batch kernel transitions once per call
  instead of once per replica.  Each row runs the scalar cell's check loop
  at its cadence (fixed or ``"auto"``), so the same chunk sequence, RNG
  stream and convergence checks;
* a *table-sharing unit* when the resolved engine is table-shareable
  (:func:`repro.engine.dispatch.table_shareable` — the per-agent
  ``FastBatchEngine`` and ``SequentialEngine``): the unit builds
  ``factory(n)`` once and runs its seeds in order on that instance, so
  every seed after the first finds the transitions the earlier ones
  compiled in the shared :class:`~repro.engine.table.TransitionTable`.
  These engines draw agent indices, never state ids, so a warm table
  changes no trajectory.  A seed that raises fails only its own cell.

Both kinds are sharded so every worker still gets a unit, and each cell
reproduces its one-cell run **bit-for-bit**, so grouping is invisible in
the results and in the store — a sweep resumed on a machine that groups
differently still reuses every cell.  Recorders, checkpoints,
``scenario=`` and ``raise_on_budget`` keep every cell a one-cell unit on
a fresh protocol.

A failing cell does not abandon the sweep: the remaining units still run,
completed cells are recorded, and the failures surface at the end as one
:class:`~repro.errors.SweepError` carrying ``(n, seed, exception)`` triples
plus the completed points.

Resumable sweeps
================

Pass ``store=`` (a directory path or an
:class:`~repro.experiments.store.ExperimentStore`) to make the sweep
restartable: every completed cell is persisted under a content hash of its
inputs — protocol fingerprint, ``n``, seed, engine, convergence predicate
and budget — and a rerun with the same arguments loads finished cells from
disk and executes only the missing ones.  Cells loaded from the store are
marked with ``extra={"cached": True}`` on their :class:`SweepPoint`:

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as directory:
    ...     first = run_many(lambda n: SlowLeaderElection(), [8],
    ...                      repetitions=2, max_parallel_time=500.0,
    ...                      store=directory)
    ...     again = run_many(lambda n: SlowLeaderElection(), [8],
    ...                      repetitions=2, max_parallel_time=500.0,
    ...                      store=directory)
    >>> [point.extra.get("cached", False) for point in first]
    [False, False]
    >>> [point.extra.get("cached", False) for point in again]
    [True, True]
    >>> [p.result.interactions for p in again] == [
    ...     p.result.interactions for p in first]
    True

Per-run seeds are spawned prefix-stably from ``base_seed`` (the first
``repetitions`` seeds of a size do not depend on how many sizes follow), so
growing a sweep — more sizes, more repetitions — reuses every cell the
smaller sweep already computed.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.engine.base import cadence_for, drive_checks, run_checks
from repro.engine.convergence import ConvergencePredicate, SingleLeader
from repro.engine.cpus import available_cpus
from repro.engine.dispatch import (
    EngineSpec,
    releases_gil,
    replica_capable,
    resolve_engine,
    table_shareable,
)
from repro.engine.rng import spawn_seeds
from repro.engine.simulation import RunResult, run_protocol
from repro.errors import ConfigurationError, ReproError, SweepError

__all__ = ["SweepPoint", "available_cpus", "run_cells", "run_many"]

#: Worker-pool backends :func:`run_many` / :func:`run_cells` accept.
_BACKENDS = ("auto", "thread", "process")

ProtocolFactory = Callable[[int], "PopulationProtocol"]  # noqa: F821 - doc only
ConvergenceFactory = Callable[[int], Optional[ConvergencePredicate]]

#: One sweep job: (result index, population size, seed, store key, store
#: inputs) — key/inputs are ``None`` for storeless sweeps.
_Job = Tuple[int, int, int, Optional[str], Optional[dict]]


@dataclass
class SweepPoint:
    """One (population size, seed) cell of a sweep and its result."""

    n: int
    seed: int
    result: RunResult
    extra: Dict[str, object] = field(default_factory=dict)


def _run_single(
    protocol: "PopulationProtocol",  # noqa: F821 - doc only
    n: int,
    seed: int,
    max_parallel_time: float,
    convergence_factory: Optional[ConvergenceFactory],
    engine: EngineSpec,
    run_kwargs: Dict[str, object],
) -> SweepPoint:
    convergence = convergence_factory(n) if convergence_factory is not None else None
    result = run_protocol(
        protocol,
        n,
        seed=seed,
        max_parallel_time=max_parallel_time,
        convergence=convergence,
        engine_cls=engine,
        **run_kwargs,
    )
    return SweepPoint(n=n, seed=seed, result=result)


def _cell_key_for(
    store,
    factory: ProtocolFactory,
    n: int,
    seed: int,
    max_parallel_time: float,
    convergence_factory: Optional[ConvergenceFactory],
    engine: EngineSpec,
    run_kwargs: Dict[str, object],
):
    """``(key, inputs)`` identifying one sweep cell in the store.

    The protocol and convergence predicate are constructed only to read
    their fingerprint / description — both are cheap by contract (protocol
    factories are passed around for exactly this reason).
    """
    from repro.experiments.store import content_key

    convergence = (
        convergence_factory(n) if convergence_factory is not None else None
    )
    description = convergence.description if convergence is not None else None
    inputs = store.cell_inputs(
        factory(n),
        n,
        seed,
        engine=engine,
        convergence=description,
        max_parallel_time=max_parallel_time,
        extra={key: run_kwargs[key] for key in sorted(run_kwargs)} or None,
    )
    return content_key(inputs), inputs


class _ProtocolConvergence:
    """Picklable convergence factory reading the protocol's own hook.

    Mirrors :func:`repro.experiments.runner.convergence_for` — the
    experiment layer's convention that a protocol may carry its own
    ``convergence()`` factory — in a form the process pool can ship.
    """

    def __init__(self, factory: ProtocolFactory) -> None:
        self.factory = factory

    def __call__(self, n: int) -> Optional[ConvergencePredicate]:
        hook = getattr(self.factory(n), "convergence", None)
        return hook() if callable(hook) else None


# ----------------------------------------------------------------------
# Grouped work units: mega-cells and table-sharing units
# ----------------------------------------------------------------------
def _groupable_kwargs(run_kwargs: Dict[str, object]) -> bool:
    """Whether ``run_kwargs`` permit grouping cells into one work unit.

    Grouped cells run the scalar check loop at any cadence; recorders,
    checkpointing, scenarios, ``raise_on_budget`` and engine keywords other
    than the kernel selectors keep the cell on the per-cell path.
    """
    engine_kwargs = run_kwargs.get("engine_kwargs") or {}
    return not (
        set(run_kwargs) - {"check_every", "engine_kwargs"}
        or set(engine_kwargs) - {"kernel", "kernel_threads"}
    )


def _resolve_sizes(
    factory: ProtocolFactory, sizes: Iterable[int], engine: EngineSpec
) -> Dict[int, Optional[type]]:
    """Each size's resolved engine class, ``None`` where resolving fails
    (the cell itself then fails the same way in its worker)."""
    engines: Dict[int, Optional[type]] = {}
    for n in sizes:
        try:
            engines[n] = resolve_engine(engine, factory(n), n)
        except Exception:  # noqa: BLE001 - a broken cell fails in its worker
            engines[n] = None
    return engines


def _group_kind(engine_cls: Optional[type]) -> Optional[str]:
    """The grouped unit kind cells on ``engine_cls`` form, or ``None``."""
    if engine_cls is None:
        return None
    if replica_capable(engine_cls):
        return "mega"
    if table_shareable(engine_cls):
        return "shared"
    return None


def _use_thread_backend(
    backend: str,
    engines: Iterable[Optional[type]],
    run_kwargs: Dict[str, object],
) -> bool:
    """Decide threads vs processes for this sweep's worker pool.

    ``"thread"`` / ``"process"`` are explicit.  ``"auto"`` picks threads
    exactly when every pending size's resolved engine (``engines``, from
    :func:`_resolve_sizes`) runs its hot loop outside the GIL
    (:func:`repro.engine.dispatch.releases_gil`) — then threads deliver
    process-level parallelism while sharing one address space: no
    factory/result pickling, one kernel-build cache, one in-process store
    handle.  Any cell on an interpreted engine (or one that fails to
    resolve — it will fail identically in its worker) makes ``"auto"``
    fall back to processes, where the GIL cannot serialise the sweep.
    """
    if backend == "thread":
        return True
    if backend == "process":
        return False
    engine_kwargs = dict(run_kwargs.get("engine_kwargs") or {})
    return all(
        resolved is not None and releases_gil(resolved, engine_kwargs)
        for resolved in engines
    )


def _run_mega_cell(
    factory: ProtocolFactory,
    n: int,
    seeds: Sequence[int],
    max_parallel_time: float,
    convergence_factory: Optional[ConvergenceFactory],
    run_kwargs: Dict[str, object],
) -> List[RunResult]:
    """Run one mega-cell: every seed as a row of a replicated engine.

    Each row gets the check loop :class:`~repro.engine.simulation.Simulation`
    would build for its scalar run — budget ``round(mpt * n)``, the cell's
    cadence, a fresh predicate — and :func:`~repro.engine.base.run_checks`
    advances all rows in lockstep through ``run_chunks``.  Each row thus
    issues its scalar run's chunk sequence and is bit-identical to it;
    finished rows get zero-budget chunks, which leave their RNG streams
    untouched.
    """
    from repro.engine.count_batch import replicated_engine

    if max_parallel_time <= 0:
        raise ConfigurationError(
            f"max_parallel_time must be positive, got {max_parallel_time}"
        )
    engine_kwargs = run_kwargs.get("engine_kwargs") or {}
    engine = replicated_engine(
        factory,
        n,
        list(seeds),
        kernel=engine_kwargs.get("kernel", "auto"),
        kernel_threads=engine_kwargs.get("kernel_threads"),
    )
    rows = engine.rows
    budget = int(round(max_parallel_time * n))
    checks = []
    for row in rows:
        predicate = convergence_factory(n) if convergence_factory is not None else None
        if predicate is None:
            predicate = SingleLeader()
        predicate.reset()
        cadence = cadence_for(run_kwargs.get("check_every"), n)
        checks.append(drive_checks(row, predicate, row.interactions + budget, cadence))
    started = _time.perf_counter()
    converged = run_checks(checks, engine.run_chunks)
    elapsed = _time.perf_counter() - started
    # Rows share one wall clock; attribute it evenly (the field is for
    # throughput reporting only and is not part of cell identity).
    return [
        RunResult.of(row, seed, verdict, wall_clock_seconds=elapsed / len(rows))
        for row, seed, verdict in zip(rows, seeds, converged)
    ]


# ----------------------------------------------------------------------
# The scheduler core
# ----------------------------------------------------------------------
def _execute_unit(
    kind: str,
    factory: ProtocolFactory,
    cells: List[Tuple[int, int]],  # (n, seed) per cell
    max_parallel_time: float,
    convergence_factory: Optional[ConvergenceFactory],
    engine: EngineSpec,
    run_kwargs: Dict[str, object],
) -> List[Union[SweepPoint, Exception]]:
    """Run one work unit (in a worker or inline) → one outcome per cell.

    An outcome is the cell's point or, in a one-cell or table-sharing
    unit, the exception its run raised: a failing seed fails only its own
    cell.  A one-cell unit builds a fresh protocol; a table-sharing unit
    builds one and runs its seeds on it in order, so each seed after the
    first reuses the transitions its predecessors compiled.
    """
    n = cells[0][0]
    if kind == "mega":
        seeds = [seed for _, seed in cells]
        results = _run_mega_cell(
            factory, n, seeds, max_parallel_time, convergence_factory, run_kwargs
        )
        return [
            SweepPoint(n=n, seed=seed, result=result, extra={"replicated": True})
            for (_, seed), result in zip(cells, results)
        ]
    protocol = factory(n)
    outcomes: List[Union[SweepPoint, Exception]] = []
    for _, seed in cells:
        try:
            outcomes.append(
                _run_single(
                    protocol,
                    n,
                    seed,
                    max_parallel_time,
                    convergence_factory,
                    engine,
                    dict(run_kwargs),
                )
            )
        except Exception as error:  # noqa: BLE001 - surfaced via SweepError
            outcomes.append(error)
    return outcomes


def _plan_units(
    pending: List[_Job],
    engines: Dict[int, Optional[type]],
    run_kwargs: Dict[str, object],
    shard_count: int,
) -> List[Tuple[str, List[_Job]]]:
    """Turn pending cells into work units, grouping cells of one size.

    ``engines`` maps each pending size to its resolved engine class (see
    :func:`_resolve_sizes`).  Cells sharing ``(protocol, n, engine)`` are
    grouped into mega-cells when that engine is replica-capable and into
    table-sharing units when it is table-shareable
    (:func:`repro.engine.dispatch.table_shareable`).  Each group is
    sharded into at most ``shard_count`` pieces, so a multi-worker sweep
    still spreads across the pool; one-cell shards and everything else
    become one-cell units.  Units come out ordered by their first cell's
    result index, which keeps the serial path's execution order
    deterministic.
    """
    if not _groupable_kwargs(run_kwargs):
        return [("cell", [job]) for job in pending]
    kinds = {n: _group_kind(engine_cls) for n, engine_cls in engines.items()}
    units: List[Tuple[str, List[_Job]]] = []
    groups: Dict[int, List[_Job]] = {}
    for job in pending:
        if kinds[job[1]] is None:
            units.append(("cell", [job]))
        else:
            groups.setdefault(job[1], []).append(job)
    for n, group in groups.items():
        shards = max(1, min(shard_count, len(group)))
        base, remainder = divmod(len(group), shards)
        cursor = 0
        for index in range(shards):
            size = base + (1 if index < remainder else 0)
            shard = group[cursor : cursor + size]
            cursor += size
            units.append((kinds[n] if len(shard) > 1 else "cell", shard))
    units.sort(key=lambda unit: unit[1][0][0])
    return units


def _run_jobs(
    factory: ProtocolFactory,
    jobs: List[Tuple[int, int, int]],  # (index, n, seed)
    *,
    max_parallel_time: float,
    convergence_factory: Optional[ConvergenceFactory],
    workers: int,
    engine: EngineSpec,
    store,
    run_kwargs: Dict[str, object],
    backend: str = "auto",
) -> List[SweepPoint]:
    """Shared scheduler behind :func:`run_many` and :func:`run_cells`."""
    if backend not in _BACKENDS:
        raise ConfigurationError(
            f"unknown sweep backend {backend!r}; expected one of {_BACKENDS}"
        )
    # Resolve every cell against the store first, so the scheduler only
    # ever sees the missing cells.
    cached: Dict[int, SweepPoint] = {}
    pending: List[_Job] = []
    failures: List[Tuple[int, int, BaseException]] = []
    for index, n, seed in jobs:
        if store is None:
            pending.append((index, n, seed, None, None))
            continue
        try:
            key, inputs = _cell_key_for(
                store,
                factory,
                n,
                seed,
                max_parallel_time,
                convergence_factory,
                engine,
                dict(run_kwargs),
            )
        except Exception as error:  # noqa: BLE001 - surfaced via SweepError
            # A factory or predicate that cannot even be constructed for
            # this cell fails the cell, not the sweep: the other cells
            # still run and are recorded.
            failures.append((n, seed, error))
            continue
        result = store.load_result(key)
        if result is not None:
            cached[index] = SweepPoint(
                n=n, seed=seed, result=result, extra={"cached": True}
            )
        else:
            pending.append((index, n, seed, key, inputs))

    points: Dict[int, SweepPoint] = dict(cached)

    def record(
        unit_jobs: List[_Job], outcomes: List[Union[SweepPoint, Exception]]
    ) -> None:
        # Stream every completed cell into the store the moment its unit
        # finishes: an interrupt after this call cannot lose the cell.
        for (index, n, seed, key, inputs), outcome in zip(unit_jobs, outcomes):
            if isinstance(outcome, Exception):
                failures.append((n, seed, outcome))
                continue
            if store is not None and key is not None:
                store.save_result(key, outcome.result, inputs)
                outcome.extra["cached"] = False
            points[index] = outcome

    def fail(unit_jobs: List[_Job], error: BaseException) -> None:
        failures.extend((n, seed, error) for _, n, seed, _, _ in unit_jobs)

    effective = max(1, min(workers, available_cpus(), len(pending) or 1))
    # One resolution per size feeds both the planner and the backend choice.
    engines = _resolve_sizes(factory, {job[1] for job in pending}, engine)
    units = _plan_units(pending, engines, run_kwargs, shard_count=effective)
    if effective <= 1 or len(units) <= 1:
        for kind, unit_jobs in units:
            try:
                outcomes = _execute_unit(
                    kind,
                    factory,
                    [(n, seed) for _, n, seed, _, _ in unit_jobs],
                    max_parallel_time,
                    convergence_factory,
                    engine,
                    dict(run_kwargs),
                )
            except Exception as error:  # noqa: BLE001 - surfaced via SweepError
                fail(unit_jobs, error)
            else:
                record(unit_jobs, outcomes)
    else:
        max_workers = min(effective, len(units))
        # Threads and processes share the Future/as_completed protocol, so
        # the backend decision is purely which executor class drains the
        # units.  record() always runs here in the submitting thread, so
        # store writes stay single-threaded on both backends.
        use_threads = _use_thread_backend(backend, engines.values(), run_kwargs)
        executor_cls = ThreadPoolExecutor if use_threads else ProcessPoolExecutor
        with executor_cls(max_workers=max_workers) as executor:
            futures = {
                executor.submit(
                    _execute_unit,
                    kind,
                    factory,
                    [(n, seed) for _, n, seed, _, _ in unit_jobs],
                    max_parallel_time,
                    convergence_factory,
                    engine,
                    dict(run_kwargs),
                ): (kind, unit_jobs)
                for kind, unit_jobs in units
            }
            for future in as_completed(futures):
                _, unit_jobs = futures[future]
                error = future.exception()
                if error is not None:
                    fail(unit_jobs, error)
                else:
                    record(unit_jobs, future.result())
    if failures:
        ordered = [points[index] for index in sorted(points)]
        raise SweepError(failures, ordered)
    return [points[index] for index, _, _ in jobs]


def run_many(
    factory: ProtocolFactory,
    ns: Sequence[int],
    *,
    repetitions: int = 5,
    base_seed: int = 12345,
    max_parallel_time: float = 1024.0,
    convergence_factory: Optional[ConvergenceFactory] = None,
    workers: Optional[int] = None,
    engine: EngineSpec = None,
    backend: str = "auto",
    store: Union["ExperimentStore", str, Path, None] = None,  # noqa: F821
    **run_kwargs: object,
) -> List[SweepPoint]:
    """Run ``factory(n)`` for every ``n`` and ``repetitions`` seeds each.

    Parameters
    ----------
    factory:
        Callable building a protocol for a given population size.  Must be
        picklable (a module-level function or partial) when ``workers > 1``.
    ns:
        Population sizes to sweep.
    repetitions:
        Number of independent seeds per population size.
    base_seed:
        Top-level seed; per-run seeds are spawned deterministically from it.
    max_parallel_time:
        Per-run parallel-time budget.
    convergence_factory:
        Optional callable building the convergence predicate for a given
        population size (defaults to the standard single-leader predicate).
    workers:
        ``None`` or ``0``/``1`` runs serially; larger values drain the work
        units through ``min(workers, available CPUs, pending cells)``
        worker processes (available CPUs respect the scheduler affinity
        mask, see :func:`available_cpus`).  Serial execution is the default
        because individual runs are already long relative to scheduling
        overhead and serial mode keeps tracebacks simple.
    engine:
        Engine specification — a name, ``"auto"``, an engine class, or
        ``None`` for the default sequential engine (see
        :func:`repro.engine.dispatch.resolve_engine`).  Cells of one size
        are grouped into replica-vectorised mega-cells or table-sharing
        units when the resolved engine allows it (bit-identical per cell;
        see the module docstring).
    backend:
        Worker-pool flavour when ``workers > 1``: ``"process"`` (one OS
        process per worker, full isolation, pickling at the boundary),
        ``"thread"`` (one thread per worker in this process — no pickling,
        shared kernel caches and store handle; parallel only when the
        engine's hot loop releases the GIL), or ``"auto"`` (the default:
        threads exactly when every cell resolves to a GIL-releasing kernel
        engine, processes otherwise).  The backend never changes results —
        cells are bit-identical across ``"thread"``, ``"process"`` and
        serial execution.
    store:
        Optional on-disk experiment store (directory path or
        :class:`~repro.experiments.store.ExperimentStore`).  Completed
        cells are loaded instead of re-run and fresh cells are persisted
        the moment they finish, making the sweep resumable after an
        interruption — see the module docstring.  Loaded cells carry
        ``extra={"cached": True}``.
    run_kwargs:
        Forwarded to :func:`repro.engine.simulation.run_protocol` (and, when
        a store is used, hashed into the cell key — a sweep with a
        different ``check_every`` is a different sweep).

    Returns
    -------
    list of :class:`SweepPoint`, ordered by (n, repetition).

    Raises
    ------
    :class:`~repro.errors.SweepError`
        When one or more cells fail.  Every other cell still runs and is
        recorded first; the exception carries the per-cell failures and the
        completed points.
    """
    ns = [int(n) for n in ns]
    if not ns:
        raise ConfigurationError("sweep requires at least one population size")
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    if store is not None:
        # Lazy import: repro.experiments imports this module at load time.
        from repro.experiments.store import ExperimentStore

        store = ExperimentStore.ensure(store)
    seeds = spawn_seeds(base_seed, len(ns) * repetitions)
    jobs = []
    cursor = 0
    for n in ns:
        for _ in range(repetitions):
            jobs.append((cursor, n, seeds[cursor]))
            cursor += 1
    return _run_jobs(
        factory,
        jobs,
        max_parallel_time=max_parallel_time,
        convergence_factory=convergence_factory,
        workers=workers or 0,
        engine=engine,
        store=store,
        run_kwargs=dict(run_kwargs),
        backend=backend,
    )


def run_cells(
    factory: ProtocolFactory,
    n: int,
    seeds: Sequence[int],
    *,
    max_parallel_time: float,
    convergence_factory: Optional[ConvergenceFactory] = None,
    workers: int = 0,
    engine: EngineSpec = None,
    backend: str = "auto",
    store: Union["ExperimentStore", str, Path, None] = None,  # noqa: F821
    **run_kwargs: object,
) -> List[SweepPoint]:
    """Run one population size across an explicit seed list.

    The experiment layer's entry into the sweep scheduler
    (:func:`repro.experiments.runner.run_cell` routes recorder-free cells
    here): same store resumability, cell grouping, worker-pool
    ``backend`` selection and failure semantics as :func:`run_many`, but
    with caller-provided seeds and a single ``n``.  When
    ``convergence_factory`` is ``None`` the predicate comes from the
    protocol's own ``convergence()`` hook (the experiment convention),
    falling back to the single-leader default.
    """
    if not seeds:
        raise ConfigurationError("run_cells requires at least one seed")
    if store is not None:
        from repro.experiments.store import ExperimentStore

        store = ExperimentStore.ensure(store)
    if convergence_factory is None:
        convergence_factory = _ProtocolConvergence(factory)
    jobs = [(index, int(n), seed) for index, seed in enumerate(seeds)]
    return _run_jobs(
        factory,
        jobs,
        max_parallel_time=max_parallel_time,
        convergence_factory=convergence_factory,
        workers=workers,
        engine=engine,
        store=store,
        run_kwargs=dict(run_kwargs),
        backend=backend,
    )
