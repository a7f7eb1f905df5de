"""Shared experiment plumbing: run loops, result containers, reporting.

An experiment produces an :class:`ExperimentResult`: a set of named tables
(each a header plus rows of plain values) together with free-form metadata.
Results render to text (CLI), markdown (``EXPERIMENTS.md``) and CSV/JSON
(:mod:`repro.experiments.io`).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.tables import format_markdown_table, format_text_table
from repro.engine.convergence import ConvergencePredicate
from repro.engine.dispatch import EngineSpec
from repro.engine.protocol import PopulationProtocol
from repro.engine.recorder import Recorder
from repro.engine.rng import spawn_seeds
from repro.engine.simulation import RunResult, run_protocol
from repro.errors import ExperimentError

__all__ = [
    "ExperimentTable",
    "ExperimentResult",
    "convergence_for",
    "run_cell",
    "sweep",
]


@dataclass
class ExperimentTable:
    """One table of an experiment report."""

    name: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        """Append a row (must match the header width)."""
        if len(cells) != len(self.headers):
            raise ExperimentError(
                f"table {self.name!r}: row has {len(cells)} cells, expected "
                f"{len(self.headers)}"
            )
        self.rows.append(list(cells))

    def to_text(self) -> str:
        return f"== {self.name} ==\n" + format_text_table(self.headers, self.rows)

    def to_markdown(self) -> str:
        return f"### {self.name}\n\n" + format_markdown_table(self.headers, self.rows)


@dataclass
class ExperimentResult:
    """Full report of one experiment run."""

    experiment: str
    description: str
    tables: List[ExperimentTable] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    wall_clock_seconds: float = 0.0

    def table(self, name: str) -> ExperimentTable:
        """Look up a table by name."""
        for table in self.tables:
            if table.name == name:
                return table
        raise ExperimentError(
            f"experiment {self.experiment!r} has no table named {name!r}; "
            f"available: {[t.name for t in self.tables]}"
        )

    def add_table(self, name: str, headers: Sequence[str]) -> ExperimentTable:
        """Create, register and return a new table."""
        table = ExperimentTable(name=name, headers=list(headers))
        self.tables.append(table)
        return table

    def to_text(self) -> str:
        parts = [f"# Experiment: {self.experiment}", self.description, ""]
        for table in self.tables:
            parts.append(table.to_text())
            parts.append("")
        if self.metadata:
            parts.append("metadata: " + ", ".join(f"{k}={v}" for k, v in sorted(self.metadata.items())))
        parts.append(f"(wall clock: {self.wall_clock_seconds:.1f}s)")
        return "\n".join(parts)

    def to_markdown(self) -> str:
        parts = [f"## {self.experiment}", "", self.description, ""]
        for table in self.tables:
            parts.append(table.to_markdown())
            parts.append("")
        return "\n".join(parts)


# ----------------------------------------------------------------------
# Run helpers
# ----------------------------------------------------------------------
def convergence_for(protocol: PopulationProtocol) -> Optional[ConvergencePredicate]:
    """The protocol-specific convergence predicate, when the protocol
    provides one (``protocol.convergence()``); ``None`` otherwise, which lets
    :func:`repro.engine.simulation.run_protocol` fall back to the plain
    single-leader predicate."""
    factory = getattr(protocol, "convergence", None)
    if callable(factory):
        return factory()
    return None


def run_cell(
    protocol_factory: Callable[[int], PopulationProtocol],
    n: int,
    seeds: Sequence[int],
    *,
    max_parallel_time: float,
    recorder_factory: Optional[Callable[[], Sequence[Recorder]]] = None,
    check_every: Optional[int] = None,
    engine: EngineSpec = None,
    store=None,
    workers: int = 0,
    scenario=None,
) -> List[tuple]:
    """Run one experiment cell (fixed protocol and ``n``, several seeds).

    ``engine`` is an engine specification (name, ``"auto"`` or class);
    ``None`` keeps the sequential default.

    ``store`` (a directory path or
    :class:`~repro.experiments.store.ExperimentStore`) makes the cell
    resumable: completed per-seed runs are loaded from disk instead of
    re-executed.  The store only applies to *recorder-free* cells —
    recorder time series are in-memory observations of a live engine and
    are not persisted, so cells with a ``recorder_factory`` always run.

    Recorder-free cells go through the sweep scheduler
    (:func:`repro.engine.parallel.run_cells`): seeds on a per-agent engine
    share one compiled table per worker (bit-identical per seed),
    ``workers > 1`` runs missing seeds in parallel on a pool of worker
    processes (the only parallelism; serial otherwise), and every
    completed seed is persisted as it finishes.  Cells with recorders keep
    the in-process serial loop — recorders observe a live engine and
    cannot cross a process boundary.

    ``scenario`` (a :class:`~repro.scenarios.Scenario`) runs every seed
    under a non-default interaction model.  Scenario cells use the serial
    in-process loop: the multi-process scheduler assumes the complete
    fault-free model.

    Returns a list of ``(RunResult, recorders)`` pairs, where ``recorders``
    is the (possibly empty) list produced by ``recorder_factory`` for that
    run — experiments read their time series from these.
    """
    if scenario is not None:
        from repro.scenarios import active_scenario

        scenario = active_scenario(scenario)
    if recorder_factory is None and scenario is None:
        from repro.engine.parallel import run_cells

        points = run_cells(
            protocol_factory,
            n,
            list(seeds),
            max_parallel_time=max_parallel_time,
            workers=workers,
            engine=engine,
            store=store,
            **({"check_every": check_every} if check_every else {}),
        )
        return [(point.result, []) for point in points]
    outcomes = []
    for seed in seeds:
        protocol = protocol_factory(n)
        convergence = convergence_for(protocol)
        recorders = list(recorder_factory()) if recorder_factory else []
        result = run_protocol(
            protocol,
            n,
            seed=seed,
            max_parallel_time=max_parallel_time,
            convergence=convergence,
            recorders=recorders,
            check_every=check_every,
            engine_cls=engine,
            scenario=scenario,
        )
        outcomes.append((result, recorders))
    return outcomes


def sweep(
    protocol_factory: Callable[[int], PopulationProtocol],
    ns: Sequence[int],
    *,
    repetitions: int,
    base_seed: int,
    max_parallel_time: float,
    recorder_factory: Optional[Callable[[], Sequence[Recorder]]] = None,
    check_every: Optional[int] = None,
    engine: EngineSpec = None,
    store=None,
    workers: int = 0,
    scenario=None,
) -> Dict[int, List[tuple]]:
    """Run a full (sizes × seeds) sweep; returns ``{n: [(result, recorders)]}``.

    A recorder-free, scenario-free sweep is one call of the sweep
    scheduler (:func:`repro.engine.parallel.run_many`) over every size: one
    pool of ``workers`` processes steals cells across all sizes, each
    worker compiles one table per calibration for the whole sweep, and
    ``store`` makes every cell resumable.  The predicate is the
    protocol's own ``convergence()`` hook, as in :func:`run_cell`, so cell
    keys equal those of the per-size path.  Sweeps with recorders or a
    ``scenario`` (non-default interaction model) run size by size through
    :func:`run_cell`'s serial loop.  Seeds are spawned prefix-stably from
    ``base_seed``, so extending ``ns`` or ``repetitions`` keeps the keys —
    and therefore the stored results — of the smaller sweep valid.
    """
    ns = [int(n) for n in ns]
    if scenario is not None:
        from repro.scenarios import active_scenario

        scenario = active_scenario(scenario)
    if recorder_factory is None and scenario is None and ns:
        from repro.engine.parallel import _ProtocolConvergence, run_many

        points = run_many(
            protocol_factory,
            ns,
            repetitions=repetitions,
            base_seed=base_seed,
            max_parallel_time=max_parallel_time,
            convergence_factory=_ProtocolConvergence(protocol_factory),
            workers=workers,
            engine=engine,
            store=store,
            **({"check_every": check_every} if check_every else {}),
        )
        return {
            n: [(point.result, []) for point in points[i * repetitions : (i + 1) * repetitions]]
            for i, n in enumerate(ns)
        }
    seeds = spawn_seeds(base_seed, len(ns) * repetitions)
    cells: Dict[int, List[tuple]] = {}
    cursor = 0
    for n in ns:
        cell_seeds = seeds[cursor : cursor + repetitions]
        cursor += repetitions
        cells[n] = run_cell(
            protocol_factory,
            n,
            cell_seeds,
            max_parallel_time=max_parallel_time,
            recorder_factory=recorder_factory,
            check_every=check_every,
            engine=engine,
            store=store,
            workers=workers,
            scenario=scenario,
        )
    return cells


def timed(fn: Callable[[], ExperimentResult]) -> ExperimentResult:
    """Run ``fn`` and stamp the wall-clock duration on its result."""
    started = _time.perf_counter()
    result = fn()
    result.wall_clock_seconds = _time.perf_counter() - started
    return result
