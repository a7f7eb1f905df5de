"""Recorders: periodic observers of a running simulation.

A recorder is an object with a ``record(engine)`` method; the
:class:`repro.engine.simulation.Simulation` driver invokes every attached
recorder at each convergence-check point: one every ``check_every``
interactions, the run's one fixed check period (default ``n``).  Recorders
are how the experiment harness extracts time series such as "number of
active leader candidates over time" or "coin level histogram at the end of
every phase-clock round" without slowing down the engine's hot loop.

Recorders read engines only through the shared inspection API, so they work
identically on per-agent and count-space engines.  Metrics that loop over
states should be compiled into state-property views
(:mod:`repro.engine.views`) and declared through the recorder's
:attr:`~Recorder.views` attribute, so each record call is a vector reduction
over the engine's count vector:

    >>> from repro.engine.recorder import MetricRecorder
    >>> from repro.engine.count_batch import CountBatchEngine
    >>> from repro.protocols.slow import SlowLeaderElection
    >>> recorder = MetricRecorder(metric=lambda e: e.count_of("L"),
    ...                           name="leaders")
    >>> engine = CountBatchEngine(SlowLeaderElection(), 32, rng=0)
    >>> recorder.record(engine)
    >>> recorder.last()   # everyone starts as a leader
    32

Recorded values keep their native type — an integer-valued metric stays
``int`` (NumPy scalars are converted to their Python equivalents).

Recorder state lives in memory for the duration of one run; it is **not**
part of engine checkpoints (a resumed run records from the resume point on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.base import BaseEngine
from repro.engine.views import StateView
from repro.types import State

__all__ = [
    "Recorder",
    "SnapshotRecorder",
    "MetricRecorder",
    "OutputCountRecorder",
]


class Recorder:
    """Base class for simulation observers."""

    #: State-property views this recorder evaluates; the simulation driver
    #: warms declared views against the engine's compiled table up front
    #: (see :mod:`repro.engine.views`).
    views: Tuple[StateView, ...] = ()

    def record(self, engine: BaseEngine) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any accumulated observations."""


@dataclass
class SnapshotRecorder(Recorder):
    """Stores the full ``{state: count}`` dictionary at every check point.

    ``max_snapshots`` bounds memory use; once reached, snapshots are thinned
    by dropping every other stored snapshot (keeping the first and most
    recent), which preserves coverage of the whole run.
    """

    max_snapshots: int = 4096
    times: List[float] = field(default_factory=list)
    snapshots: List[Dict[State, int]] = field(default_factory=list)

    def record(self, engine: BaseEngine) -> None:
        self.times.append(engine.parallel_time)
        self.snapshots.append(engine.state_counts())
        if len(self.snapshots) > self.max_snapshots:
            self.times = self.times[::2]
            self.snapshots = self.snapshots[::2]

    def reset(self) -> None:
        self.times.clear()
        self.snapshots.clear()

    def __len__(self) -> int:
        return len(self.snapshots)


@dataclass
class MetricRecorder(Recorder):
    """Applies a scalar metric ``engine -> value`` at every check point.

    Values are stored with the metric's native type: an integer-valued
    metric (a count, a level) yields an ``int`` series, a ratio a ``float``
    one.  NumPy scalars are unwrapped to their Python equivalents so the
    series stays plain data.
    """

    metric: Callable[[BaseEngine], object] = None  # type: ignore[assignment]
    name: str = "metric"
    times: List[float] = field(default_factory=list)
    values: List[object] = field(default_factory=list)

    def record(self, engine: BaseEngine) -> None:
        self.times.append(engine.parallel_time)
        value = self.metric(engine)
        if isinstance(value, np.generic):
            value = value.item()
        self.values.append(value)

    def reset(self) -> None:
        self.times.clear()
        self.values.clear()

    def series(self) -> List[tuple]:
        """The recorded ``(parallel_time, value)`` pairs."""
        return list(zip(self.times, self.values))

    def last(self) -> Optional[object]:
        """Most recent recorded value, or ``None`` when empty."""
        return self.values[-1] if self.values else None


@dataclass
class OutputCountRecorder(Recorder):
    """Records the per-output-symbol counts at every check point."""

    times: List[float] = field(default_factory=list)
    counts: List[Dict[str, int]] = field(default_factory=list)

    def record(self, engine: BaseEngine) -> None:
        self.times.append(engine.parallel_time)
        self.counts.append(engine.counts_by_output())

    def reset(self) -> None:
        self.times.clear()
        self.counts.clear()

    def series_for(self, symbol: str) -> List[tuple]:
        """Time series of the count of one output symbol."""
        return [
            (time, counts.get(symbol, 0))
            for time, counts in zip(self.times, self.counts)
        ]
