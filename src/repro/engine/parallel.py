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

The scheduler drains the sweep's cells — every size and seed, in one job
list — through ``min(workers, available CPUs, pending cells)`` worker
processes (available CPUs come from
:func:`repro.engine.cpus.available_cpus` — the scheduler affinity mask
capped by ``REPRO_MAX_WORKERS``, so a containerised CI with a CPU quota is
not oversubscribed).  Cells are pulled from one shared queue as workers
free up — work stealing at cell granularity across all sizes — and each
completed cell is recorded (and, with a store, persisted) **as it
finishes**, in completion order, not submission order.  A crash or kill
therefore loses at most the cells in flight; everything recorded before
the interrupt is already on disk.  The pool is the only parallelism:
every engine runs one seed on its calling thread, so ``workers=`` is the
whole CPU budget, and ``workers=0``/``1`` runs the cells in order in this
process.

Every cell builds its own ``factory(n)`` and runs on that protocol's own
table, so cells are bit-identical at any worker count and cell keys depend
on the cell alone.  What a process keeps between cells is the closure
cache: every cell of GSU19 or GS18, whatever its engine or size,
starts on a table adopted from its calibration's reachable-state closure
(:meth:`~repro.engine.protocol.PopulationProtocol.compile`), and then
compiles no transition pair.  A process gets each closure once: from
the calibration's closure file in the kernel cache
(:func:`~repro.engine.closure.closure_file`), or, when there is none yet,
from its own BFS, which writes the file for every later worker and sweep.

Recorder cells take the same path at every worker count.
``recorder_factory=`` builds each cell's recorders in the process that
runs the cell, and they return, pickled, on :attr:`SweepPoint.recorders`;
recorder cells skip the store, because their series are not persisted.

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

Per-run seeds are spawned prefix-stably from ``base_seed`` and dealt out
size-major (size ``i`` takes seeds ``i * repetitions`` onwards), so
appending sizes to a sweep reuses every cell the smaller sweep already
computed.  Adding repetitions reuses only a single-size sweep's cells: in
a multi-size sweep it shifts the seeds of every size after the first.  The store is also the only way a sweep
resumes: ``resume=True`` names one checkpoint file, which cannot stand for
several cells, so sweeps refuse it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.base import check_period
from repro.engine.convergence import ConvergencePredicate
from repro.engine.cpus import available_cpus
from repro.engine.dispatch import EngineSpec
from repro.engine.recorder import Recorder
from repro.engine.rng import spawn_seeds
from repro.engine.simulation import RunResult, run_protocol
from repro.errors import ConfigurationError, SweepError

__all__ = ["SweepPoint", "available_cpus", "convergence_for", "run_cells", "run_many"]

ProtocolFactory = Callable[[int], "PopulationProtocol"]  # noqa: F821 - doc only
ConvergenceFactory = Callable[[int], Optional[ConvergencePredicate]]
RecorderFactory = Callable[[], Sequence[Recorder]]

#: One sweep job: (result index, population size, seed, store key, store
#: inputs) — key/inputs are ``None`` for storeless sweeps.
_Job = Tuple[int, int, int, Optional[str], Optional[dict]]


@dataclass
class SweepPoint:
    """One (population size, seed) cell of a sweep and its result.

    ``recorders`` are the cell's recorders from the sweep's
    ``recorder_factory`` (empty without one), returned with the series they
    observed.
    """

    n: int
    seed: int
    result: RunResult
    extra: Dict[str, object] = field(default_factory=dict)
    recorders: List[Recorder] = field(default_factory=list)


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
    extra = {key: run_kwargs[key] for key in sorted(run_kwargs)}
    inputs = store.cell_inputs(
        factory(n),
        n,
        seed,
        engine=engine,
        convergence=description,
        max_parallel_time=max_parallel_time,
        extra=extra or None,
    )
    return content_key(inputs), inputs


def convergence_for(protocol) -> Optional[ConvergencePredicate]:
    """The protocol's own ``convergence()`` predicate, when it provides one;
    ``None`` otherwise, which lets :func:`run_protocol` fall back to the
    plain single-leader predicate."""
    hook = getattr(protocol, "convergence", None)
    return hook() if callable(hook) else None


class _ProtocolConvergence:
    """Picklable convergence factory: :func:`convergence_for` of ``factory(n)``,
    in a form the process pool can ship."""

    def __init__(self, factory: ProtocolFactory) -> None:
        self.factory = factory

    def __call__(self, n: int) -> Optional[ConvergencePredicate]:
        return convergence_for(self.factory(n))


# ----------------------------------------------------------------------
# The scheduler core
# ----------------------------------------------------------------------
def _execute_cell(
    factory: ProtocolFactory,
    n: int,
    seed: int,
    max_parallel_time: float,
    convergence_factory: Optional[ConvergenceFactory],
    recorder_factory: Optional[RecorderFactory],
    engine: EngineSpec,
    run_kwargs: Dict[str, object],
) -> SweepPoint:
    """Run one cell on a fresh ``factory(n)`` with its own recorders."""
    protocol = factory(n)
    convergence = convergence_factory(n) if convergence_factory is not None else None
    if recorder_factory is not None:
        run_kwargs = {**run_kwargs, "recorders": list(recorder_factory())}
    result = run_protocol(
        protocol,
        n,
        seed=seed,
        max_parallel_time=max_parallel_time,
        convergence=convergence,
        engine_cls=engine,
        **run_kwargs,
    )
    return SweepPoint(
        n=n, seed=seed, result=result, recorders=list(run_kwargs.get("recorders", ()))
    )


def _run_jobs(
    factory: ProtocolFactory,
    jobs: List[Tuple[int, int, int]],  # (index, n, seed)
    *,
    max_parallel_time: float,
    convergence_factory: Optional[ConvergenceFactory],
    recorder_factory: Optional[RecorderFactory],
    workers: int,
    engine: EngineSpec,
    store,
    run_kwargs: Dict[str, object],
) -> List[SweepPoint]:
    """Shared scheduler behind :func:`run_many` and :func:`run_cells`."""
    if run_kwargs.get("resume"):
        raise ConfigurationError(
            "resume=True cannot be used in a sweep: every cell would resume "
            "the same checkpoint file; pass store= to resume a sweep"
        )
    # A bad period fails the sweep up front, not each cell (the size only
    # stands in for the default period, which is always valid).
    check_period(run_kwargs.get("check_every"), 1)
    if recorder_factory is not None:
        # Recorder series are live observations that are not persisted, so
        # recorder cells always run.
        store = None
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

    def record(job: _Job, point: SweepPoint) -> None:
        # Stream every completed cell into the store the moment it
        # finishes: an interrupt after this call cannot lose the cell.
        index, _, _, key, inputs = job
        if store is not None and key is not None:
            store.save_result(key, point.result, inputs)
            point.extra["cached"] = False
        points[index] = point

    def arguments(job: _Job) -> tuple:
        _, n, seed, _, _ = job
        return (
            factory,
            n,
            seed,
            max_parallel_time,
            convergence_factory,
            recorder_factory,
            engine,
            dict(run_kwargs),
        )

    effective = max(1, min(workers, available_cpus(), len(pending) or 1))
    if effective <= 1:
        for job in pending:
            try:
                point = _execute_cell(*arguments(job))
            except Exception as error:  # noqa: BLE001 - surfaced via SweepError
                failures.append((job[1], job[2], error))
            else:
                record(job, point)
    else:
        # record() runs here, in the submitting process, so store writes
        # stay single-threaded.
        with ProcessPoolExecutor(max_workers=effective) as pool:
            futures = {pool.submit(_execute_cell, *arguments(job)): job for job in pending}
            for future in as_completed(futures):
                job = futures[future]
                error = future.exception()
                if error is not None:
                    failures.append((job[1], job[2], error))
                else:
                    record(job, future.result())
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
    recorder_factory: Optional[RecorderFactory] = None,
    workers: Optional[int] = None,
    engine: EngineSpec = None,
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
    recorder_factory:
        Optional callable returning fresh recorders for one cell.  Each
        cell builds its own in the process that runs it, and they come
        back, with their series, on :attr:`SweepPoint.recorders`.  Recorder
        cells never touch ``store``.  Must be picklable when ``workers > 1``.
    workers:
        ``None`` or ``0``/``1`` runs serially, one cell at a time in this
        process; larger values drain the cells through ``min(workers,
        available CPUs, pending cells)`` worker processes (available CPUs
        respect the scheduler affinity mask and ``REPRO_MAX_WORKERS``, see
        :func:`available_cpus`).  This is the only parallelism a sweep
        has, and it never changes results: cells are bit-identical at
        every worker count.  Serial execution is the default because
        individual runs are already long relative to scheduling overhead
        and serial mode keeps tracebacks simple.
    engine:
        Engine specification — a name, ``"auto"``, an engine class, or
        ``None`` for the default sequential engine (see
        :func:`repro.engine.dispatch.resolve_engine`).
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
        different ``check_every`` is a different sweep).  ``resume=True``
        raises :class:`~repro.errors.ConfigurationError`: resume a sweep
        through ``store=``.

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
        recorder_factory=recorder_factory,
        workers=workers or 0,
        engine=engine,
        store=store,
        run_kwargs=dict(run_kwargs),
    )


def run_cells(
    factory: ProtocolFactory,
    n: int,
    seeds: Sequence[int],
    *,
    max_parallel_time: float,
    convergence_factory: Optional[ConvergenceFactory] = None,
    recorder_factory: Optional[RecorderFactory] = None,
    workers: int = 0,
    engine: EngineSpec = None,
    store: Union["ExperimentStore", str, Path, None] = None,  # noqa: F821
    **run_kwargs: object,
) -> List[SweepPoint]:
    """Run one population size across an explicit seed list.

    The experiments' entry into the sweep scheduler for one size with
    their own seeds (``figure3``, ``clock``): same recorders, store
    resumability, worker pool and failure semantics as
    :func:`run_many`, but with caller-provided seeds and a single ``n``.
    When ``convergence_factory`` is ``None`` the predicate comes from the
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
        recorder_factory=recorder_factory,
        workers=workers,
        engine=engine,
        store=store,
        run_kwargs=dict(run_kwargs),
    )
