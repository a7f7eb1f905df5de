"""In-memory span tracer that instruments the simulator from the outside.

:func:`install` wraps public methods and functions of the simulator's
layers (protocol construction, closure BFS, dispatch, transition table,
pair scheduler, drive loop, convergence checks, recorders, checkpoints and
the experiment store) on their classes and modules.  Each call becomes a
span with a name, start, end, parent (the innermost span open on the same
thread) and thread id.  No source file of the simulator changes, and no
wrapper draws randomness, so a traced run follows the same trajectory as
an untraced one.

:func:`layer_metrics` turns spans and counters into the per-layer metrics.
A layer's time is the *self* time of its spans: a span's duration minus
the durations of its direct children.  Summing self times never counts a
re-entrant call twice (the inner span is a child of the outer one).
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Span name -> per-layer time metric (self time, seconds).
TIME_METRICS = {
    "engine.closure.bfs": "engine.closure.bfs_s",
    "core.protocol_build": "core.protocol_build_s",
    "engine.dispatch.resolve": "engine.dispatch.resolve_s",
    "engine.table.apply": "engine.table.miss_s",
    "engine.scheduler.pair_block": "engine.scheduler.pair_block_s",
    "engine.fast_batch.step": "engine.fast_batch.step_s",
    "engine.count_batch.step": "engine.count_batch.step_s",
    "engine.convergence.check": "engine.convergence.check_s",
    "engine.recorder.record": "engine.recorder.record_s",
    "engine.simulation.checkpoint": "engine.simulation.checkpoint_s",
    "experiments.store.save": "experiments.store.save_s",
    "experiments.store.load": "experiments.store.load_s",
}

#: Span name -> per-layer call-count metric.
COUNT_METRICS = {
    "engine.table.apply": "engine.table.lut_misses",
    "engine.convergence.check": "engine.convergence.checks",
    "engine.recorder.record": "engine.recorder.records",
    "engine.simulation.checkpoint": "engine.simulation.checkpoints",
    "experiments.store.save": "experiments.store.saves",
    "experiments.store.load": "experiments.store.loads",
}

#: Counters the wrappers accumulate (summed, except the maxima).
SUM_COUNTERS = (
    "engine.scheduler.pairs",
    "experiments.io.checkpoint_bytes",
    "experiments.store.hits",
    "experiments.store.misses",
)
MAX_COUNTERS = ("engine.closure.states", "engine.table.states")

_INHERITED = object()


class Tracer:
    """Spans and counters of one traced process, kept in memory.

    Span ``i`` is stored column-wise: ``names[codes[i]]``, ``starts[i]``,
    ``ends[i]``, ``parents[i]`` (``-1`` for a root) and ``threads[i]``.
    Typed arrays keep the million spans of a traced Table 1 sweep (one per
    transition-table miss) in tens of megabytes.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.codes = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.threads = array("Q")
        self.counters: Dict[str, float] = {}
        self.occupied: List[int] = []
        self.resolved: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self.starts)

    # -- recording -----------------------------------------------------
    def code(self, name: str) -> int:
        """The integer code spans named ``name`` are stored under."""
        with self._lock:
            if name not in self.names:
                self.names.append(name)
            return self.names.index(name)

    def begin(self, code: int) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.starts)
            self.codes.append(code)
            self.parents.append(stack[-1] if stack else -1)
            self.threads.append(threading.get_ident())
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._local.stack.pop()

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def maximum(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] = max(self.counters.get(counter, 0), value)

    def wrap(self, name: str, function: Callable, after: Optional[Callable] = None) -> Callable:
        """``function`` recorded as a span; ``after(result, args)`` runs
        outside the span, so its own cost is not charged to the layer."""
        code = self.code(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.begin(code)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- patching ------------------------------------------------------
    def patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute``; :meth:`uninstall` restores the original
        (or removes the attribute when it was inherited)."""
        original = vars(owner).get(attribute, _INHERITED)
        setattr(owner, attribute, replacement)

        def undo() -> None:
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

        self._undo.append(undo)

    def patch_method(self, cls: type, attribute: str, name: str, after=None) -> None:
        self.patch(cls, attribute, self.wrap(name, getattr(cls, attribute), after))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line, in index order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w") as handle:
            handle.write("name\tstart\tend\tparent\tthread\n")
            for code, start, end, parent, thread in zip(
                self.codes, self.starts, self.ends, self.parents, self.threads
            ):
                handle.write(f"{names[code]}\t{start!r}\t{end!r}\t{parent}\t{thread}\n")


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer of the simulator with ``tracer``'s spans.

    Counters are updated outside the spans.  Traced runs are meant to be
    single-threaded (the traced Table 1 sweep runs serially); spans carry
    thread ids so that a threaded caller still gets per-thread nesting.
    """
    import repro.core.monitor  # noqa: F401 - defines the recorders wrapped below
    import repro.engine.dispatch as dispatch
    import repro.engine.parallel as parallel
    import repro.engine.simulation as simulation
    from repro.core.protocol import GSULeaderElection
    from repro.engine.convergence import ConvergencePredicate
    from repro.engine.count_batch import CountBatchEngine
    from repro.engine.fast_batch import FastBatchEngine
    from repro.engine.recorder import Recorder
    from repro.engine.scheduler import PairSampler
    from repro.engine.table import TransitionTable
    from repro.experiments.store import ExperimentStore
    from repro.protocols.gs18 import GS18LeaderElection
    from repro.protocols.lottery import LotteryLeaderElection
    from repro.protocols.slow import SlowLeaderElection

    for cls in (GSULeaderElection, GS18LeaderElection, LotteryLeaderElection, SlowLeaderElection):
        tracer.patch(cls, "__init__", tracer.wrap("core.protocol_build", cls.__init__))
        if "for_population" in vars(cls):
            factory = vars(cls)["for_population"].__func__
            tracer.patch(cls, "for_population", classmethod(tracer.wrap("core.protocol_build", factory)))

    tracer.patch_method(
        GSULeaderElection, "reachable_state_closure", "engine.closure.bfs",
        after=lambda closure, args: tracer.maximum("engine.closure.states", len(closure)),
    )

    def note_resolved(engine_cls, args) -> None:
        tracer.resolved.append(dispatch.canonical_name(engine_cls))

    resolve = tracer.wrap("engine.dispatch.resolve", dispatch.resolve_engine, after=note_resolved)
    for module in (dispatch, simulation, parallel):
        tracer.patch(module, "resolve_engine", resolve)

    tracer.patch_method(TransitionTable, "apply", "engine.table.apply")
    tracer.patch_method(
        PairSampler, "pair_block", "engine.scheduler.pair_block",
        after=lambda pairs, args: tracer.add("engine.scheduler.pairs", len(pairs[0])),
    )

    original_run = simulation.Simulation.run
    step_codes = {
        FastBatchEngine: tracer.code("engine.fast_batch.step"),
        CountBatchEngine: tracer.code("engine.count_batch.step"),
    }
    other_code = tracer.code("engine.simulation.run")

    @functools.wraps(original_run)
    def run(self, **kwargs):
        index = tracer.begin(step_codes.get(type(self.engine), other_code))
        try:
            return original_run(self, **kwargs)
        finally:
            tracer.end(index)
            tracer.maximum("engine.table.states", len(self.engine.table))

    tracer.patch(simulation.Simulation, "run", run)

    def note_occupied(converged, args) -> None:
        engine = args[1]
        if isinstance(engine, CountBatchEngine):
            tracer.occupied.append(int((engine.count_vector() > 0).sum()))

    for cls in [ConvergencePredicate, *_subclasses(ConvergencePredicate)]:
        if "__call__" in vars(cls):
            tracer.patch_method(cls, "__call__", "engine.convergence.check", after=note_occupied)
    for cls in _subclasses(Recorder):
        if "record" in vars(cls):
            tracer.patch_method(cls, "record", "engine.recorder.record")

    tracer.patch_method(
        simulation.Simulation, "write_checkpoint", "engine.simulation.checkpoint",
        after=lambda path, args: tracer.add("experiments.io.checkpoint_bytes", Path(path).stat().st_size),
    )

    def note_load(result, args) -> None:
        tracer.add("experiments.store.misses" if result is None else "experiments.store.hits", 1)

    tracer.patch_method(ExperimentStore, "save_result", "experiments.store.save")
    tracer.patch_method(ExperimentStore, "load_result", "experiments.store.load", after=note_load)
    return tracer


def self_times(starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]) -> List[float]:
    """Per-span self time: duration minus the direct children's durations."""
    durations = [end - start for start, end in zip(starts, ends)]
    own = list(durations)
    for duration, parent in zip(durations, parents):
        if parent >= 0:
            own[parent] -= duration
    return own


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from ``tracer``'s spans and counters.

    Every metric named in :data:`TIME_METRICS`, :data:`COUNT_METRICS`,
    :data:`SUM_COUNTERS` and :data:`MAX_COUNTERS` is present (zero when the
    layer never ran), plus ``engine.count_batch.occupied_mean``.
    """
    metrics: Dict[str, float] = {name: 0.0 for name in TIME_METRICS.values()}
    metrics.update({name: 0 for name in COUNT_METRICS.values()})
    metrics.update({name: 0 for name in SUM_COUNTERS + MAX_COUNTERS})
    names = tracer.names
    for code, own in zip(tracer.codes, self_times(tracer.starts, tracer.ends, tracer.parents)):
        name = names[code]
        if name in TIME_METRICS:
            metrics[TIME_METRICS[name]] += own
        if name in COUNT_METRICS:
            metrics[COUNT_METRICS[name]] += 1
    metrics.update(tracer.counters)
    occupied = tracer.occupied
    metrics["engine.count_batch.occupied_mean"] = sum(occupied) / len(occupied) if occupied else 0.0
    return metrics
