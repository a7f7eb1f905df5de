"""Shared experiment plumbing: the sweep entry, result containers, reporting.

Every experiment that drives an engine runs its cells through the sweep
scheduler (:mod:`repro.engine.parallel`): :func:`sweep` (sizes × seeds to
convergence), :func:`final_metrics` (one metric at each cell's last check)
or :func:`~repro.engine.parallel.run_cells` (one size, explicit seeds); a
fixed horizon is a :func:`never_converge` cell.  Experiments produce an
:class:`ExperimentResult` of named tables (a header plus rows of plain
values) and free-form metadata, rendered to text (CLI), markdown and
CSV/JSON (:mod:`repro.experiments.io`).
"""

from __future__ import annotations

import functools
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.tables import format_markdown_table, format_text_table
from repro.engine.base import BaseEngine
from repro.engine.convergence import ConvergencePredicate, NeverConverge
from repro.engine.dispatch import EngineSpec
from repro.engine.parallel import _ProtocolConvergence, convergence_for, run_many
from repro.engine.protocol import PopulationProtocol
from repro.engine.recorder import MetricRecorder, Recorder
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.scenarios.scenario import active_scenario

__all__ = [
    "ExperimentTable",
    "ExperimentResult",
    "convergence_for",
    "final_metrics",
    "metric_recorders",
    "never_converge",
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
def never_converge(n: int) -> NeverConverge:
    """Convergence factory of a fixed-horizon cell: it runs to its budget."""
    return NeverConverge()


def _metric_recorder(metric: Callable[[BaseEngine], object]) -> List[Recorder]:
    return [MetricRecorder(metric=metric)]


def metric_recorders(metric: Callable[[BaseEngine], object]) -> Callable[[], List[Recorder]]:
    """Recorder factory of one ``MetricRecorder(metric)`` per cell.  It
    pickles for the process pool when ``metric`` is a module-level function."""
    return functools.partial(_metric_recorder, metric)


def final_metrics(
    protocol_factory: Callable[[int], PopulationProtocol],
    config: ExperimentConfig,
    metric: Callable[[BaseEngine], object],
    convergence_factory: Callable[[int], ConvergencePredicate],
    *,
    seed_offset: int = 0,
) -> Dict[int, List[object]]:
    """``{n: [metric at the last check, one per repetition]}`` over
    ``config``'s sizes: one :func:`~repro.engine.parallel.run_many`, seeded
    from ``config.base_seed + seed_offset``, whose cells run until
    ``convergence_factory(n)`` holds."""
    sizes, repetitions = config.population_sizes, config.repetitions
    points = run_many(
        protocol_factory,
        sizes,
        repetitions=repetitions,
        base_seed=config.base_seed + seed_offset,
        max_parallel_time=config.max_parallel_time,
        convergence_factory=convergence_factory,
        recorder_factory=metric_recorders(metric),
        engine=config.engine,
        workers=config.workers,
    )
    return {
        n: [point.recorders[0].last() for point in points[i * repetitions : (i + 1) * repetitions]]
        for i, n in enumerate(sizes)
    }


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

    The sweep is one call of the sweep scheduler
    (:func:`repro.engine.parallel.run_many`) over every size: one pool of
    ``workers`` processes steals cells across all sizes (serial for
    ``workers`` 0 or 1), each per-agent GSU19 or GS18 cell starts on its
    calibration's closure table (one closure BFS per process), and
    ``store`` makes every recorder-free cell resumable.  The predicate is the protocol's own ``convergence()`` hook
    (:func:`convergence_for`).  ``recorder_factory`` gives every cell fresh
    recorders, returned beside its result; ``scenario`` (a
    :class:`~repro.scenarios.Scenario`) runs every cell under a
    non-default interaction model, and the default complete fault-free
    scenario is the same as none.  Seeds are spawned prefix-stably from
    ``base_seed``, so extending ``ns`` or ``repetitions`` keeps the keys —
    and therefore the stored results — of the smaller sweep valid.  A size
    may appear in ``ns`` only once.
    """
    ns = [int(n) for n in ns]
    duplicates = sorted({n for n in ns if ns.count(n) > 1})
    if duplicates:
        raise ConfigurationError(f"sweep sizes must be distinct, {duplicates} repeat")
    run_kwargs: Dict[str, object] = {"check_every": check_every} if check_every else {}
    scenario = active_scenario(scenario)
    if scenario is not None:
        run_kwargs["scenario"] = scenario
    points = run_many(
        protocol_factory,
        ns,
        repetitions=repetitions,
        base_seed=base_seed,
        max_parallel_time=max_parallel_time,
        convergence_factory=_ProtocolConvergence(protocol_factory),
        recorder_factory=recorder_factory,
        workers=workers,
        engine=engine,
        store=store,
        **run_kwargs,
    )
    return {
        n: [
            (point.result, point.recorders)
            for point in points[i * repetitions : (i + 1) * repetitions]
        ]
        for i, n in enumerate(ns)
    }


def timed(run: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
    """Decorator of an experiment entry: stamps each call's wall-clock
    duration on the result it returns."""

    @functools.wraps(run)
    def timed_run(config: ExperimentConfig) -> ExperimentResult:
        started = _time.perf_counter()
        result = run(config)
        result.wall_clock_seconds = _time.perf_counter() - started
        return result

    return timed_run
