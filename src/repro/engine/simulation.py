"""High-level run management: budgets, convergence, recorders, checkpoints.

:class:`Simulation` wires together an engine, a convergence predicate and a
set of recorders, and produces a :class:`RunResult` — the unit of data the
analysis and experiment layers operate on.  The convenience function
:func:`run_protocol` covers the common "one protocol, one seed, run until a
single leader or a parallel-time budget" case in a single call:

    >>> from repro.protocols.slow import SlowLeaderElection
    >>> result = run_protocol(SlowLeaderElection(), 8, seed=3,
    ...                       max_parallel_time=500.0)
    >>> result.converged, result.leader_count
    (True, 1)

Checkpoint / resume
===================

Long runs are made durable by periodic checkpointing: pass
``checkpoint_every`` (an interaction period) and ``checkpoint_path`` and the
driver atomically write-replaces a checkpoint file at every due convergence
check point.  A killed run is resumed with ``resume=True`` — the engine is
rebuilt from the snapshot (same engine class, same RNG position, same state
layout) and the budget is interpreted as the *total* run budget, so the
resumed run stops exactly where the uninterrupted one would have:

    >>> import tempfile, os
    >>> from repro.protocols.epidemic import OneWayEpidemic
    >>> path = os.path.join(tempfile.mkdtemp(), "run.ckpt")
    >>> full = run_protocol(OneWayEpidemic(), 64, seed=5,
    ...                     max_parallel_time=8.0)        # the reference run
    >>> half = run_protocol(OneWayEpidemic(), 64, seed=5,
    ...                     max_parallel_time=4.0,        # "crashes" half-way
    ...                     checkpoint_every=64, checkpoint_path=path)
    >>> resumed = run_protocol(OneWayEpidemic(), 64, seed=5,
    ...                        max_parallel_time=8.0,     # total, not extra
    ...                        checkpoint_path=path, resume=True)
    >>> resumed.interactions == full.interactions
    True
    >>> resumed.final_counts == full.final_counts
    True

Because engine snapshots are bit-exact (they carry the full RNG state),
the resumed trajectory is not merely statistically equivalent — it is the
*same* trajectory, as the equality above pins down.
"""

from __future__ import annotations

import operator
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.engine.base import BaseEngine, check_period, drive_checks
from repro.engine.convergence import ConvergencePredicate, SingleLeader
from repro.engine.dispatch import ENGINE_REGISTRY, EngineSpec, resolve_engine
from repro.engine.engine import SequentialEngine
from repro.engine.protocol import PopulationProtocol
from repro.engine.recorder import Recorder
from repro.engine.rng import RngLike
from repro.errors import CheckpointError, ConfigurationError, ConvergenceError
from repro.types import State

__all__ = ["RunResult", "Simulation", "run_protocol"]

#: A run's convergence-check period in interactions, or ``None`` for the
#: default (``n``, once per parallel-time unit).
CheckEvery = Optional[int]


@dataclass
class RunResult:
    """Outcome of a single simulation run.

    Attributes
    ----------
    protocol_name:
        Name of the simulated protocol.
    n:
        Population size.
    seed:
        Seed used for the run (``None`` when an external generator was given).
    converged:
        Whether the convergence predicate held before the budget expired.
    interactions:
        Interactions executed when the run stopped.
    parallel_time:
        ``interactions / n``.
    states_used:
        Number of distinct states occupied by at least one agent at any point
        of the run (the empirical space usage).
    final_counts:
        ``{state: count}`` at the end of the run.
    final_outputs:
        ``{output symbol: count}`` at the end of the run.
    wall_clock_seconds:
        Real time spent simulating (for throughput reporting only).
    metadata:
        Free-form dictionary populated by callers (experiment parameters,
        epoch markers, ...).
    """

    protocol_name: str
    n: int
    seed: Optional[int]
    converged: bool
    interactions: int
    parallel_time: float
    states_used: int
    final_counts: Dict[State, int] = field(default_factory=dict)
    final_outputs: Dict[str, int] = field(default_factory=dict)
    wall_clock_seconds: float = 0.0
    metadata: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def of(cls, engine: BaseEngine, seed, converged: bool, **fields) -> "RunResult":
        """The result of ``engine``'s run as it stands now."""
        return cls(
            protocol_name=engine.protocol.name,
            n=engine.n,
            seed=seed,
            converged=converged,
            interactions=engine.interactions,
            parallel_time=engine.parallel_time,
            states_used=engine.states_ever_occupied,
            final_counts=engine.state_counts(),
            final_outputs=engine.counts_by_output(),
            **fields,
        )

    @property
    def leader_count(self) -> int:
        """Number of agents with the leader output at the end of the run."""
        from repro.engine.protocol import LEADER_OUTPUT

        return self.final_outputs.get(LEADER_OUTPUT, 0)

    def summary(self) -> str:
        """One-line human readable summary."""
        status = "converged" if self.converged else "budget exhausted"
        return (
            f"{self.protocol_name}: n={self.n} {status} after "
            f"{self.parallel_time:.1f} parallel time "
            f"({self.interactions} interactions), "
            f"{self.states_used} states used, leaders={self.leader_count}"
        )


class Simulation:
    """Couples an engine with a convergence predicate and recorders.

    Parameters
    ----------
    protocol:
        The protocol to simulate.
    n:
        Population size.
    rng:
        Seed or generator for the engine.
    engine_cls:
        Engine specification — class, registry name or ``"auto"``.
    engine_kwargs:
        Extra keyword arguments for the engine constructor.
    convergence:
        Convergence predicate; defaults to :class:`SingleLeader`.
    recorders:
        Observers invoked at every check point.
    check_every:
        Convergence-check period in interactions (default: ``n``); recorder
        time series are sampled at the same points.
    checkpoint_every:
        When set (with ``checkpoint_path``), write a resumable checkpoint
        at every convergence check point at least this many interactions
        after the previous one.  Checkpoints are atomic write-replace, so
        an interrupted write leaves the previous checkpoint intact.
    checkpoint_path:
        Where checkpoints are written (one file, overwritten in place).
    scenario:
        Optional :class:`~repro.scenarios.scenario.Scenario` describing the
        world the protocol runs in (interaction topology, churn, faults).
        ``None`` — or the default complete fault-free scenario, which
        normalises to ``None`` — reproduces the idealised model
        byte-exactly.  An active scenario restricts engine resolution to
        scenario-capable engines (:func:`repro.engine.dispatch.scenario_capable`)
        and rides in checkpoints, so a resumed disrupted run continues the
        same world.

    Example::

        >>> from repro.protocols.slow import SlowLeaderElection
        >>> sim = Simulation(SlowLeaderElection(), 8, rng=3)
        >>> sim.run(max_parallel_time=500.0).converged
        True
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        n: int,
        *,
        rng: RngLike = None,
        engine_cls: EngineSpec = SequentialEngine,
        engine_kwargs: Optional[dict] = None,
        convergence: Optional[ConvergencePredicate] = None,
        recorders: Optional[Sequence[Recorder]] = None,
        check_every: CheckEvery = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        scenario=None,
    ) -> None:
        self.protocol = protocol
        self.n = int(n)
        try:
            # Any integral seed, NumPy's included, recorded as a Python int.
            self.seed: Optional[int] = operator.index(rng)
        except TypeError:  # None, a generator or a seed sequence
            self.seed = None
        self.engine_kwargs = dict(engine_kwargs or {})
        if scenario is not None:
            from repro.scenarios.scenario import active_scenario

            scenario = active_scenario(scenario)
        self.scenario = scenario
        resolved_cls = resolve_engine(
            engine_cls, protocol, self.n, scenario=self.scenario
        )
        # The scenario is passed to the engine but kept OUT of
        # self.engine_kwargs: checkpoint payloads record the two separately
        # (the scenario under its own key, present only when active), so
        # default-scenario checkpoints keep the pre-scenario layout.
        constructor_kwargs = dict(self.engine_kwargs)
        if self.scenario is not None:
            constructor_kwargs["scenario"] = self.scenario
        self.engine: BaseEngine = resolved_cls(
            protocol, n, rng, **constructor_kwargs
        )
        self.convergence = convergence if convergence is not None else SingleLeader()
        self.recorders: List[Recorder] = list(recorders or [])
        self.check_every = check_every  # as given: checkpoints record it
        self._period = check_period(check_every, self.n)
        self._warm_views()
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ConfigurationError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if checkpoint_every is not None and checkpoint_path is None:
            raise ConfigurationError(
                "checkpoint_every requires a checkpoint_path to write to"
            )
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self._last_checkpoint = self.engine.interactions
        # protocol.fingerprint(), computed at the first checkpoint and
        # reused by every later one (the protocol never changes).
        self._fingerprint: Optional[dict] = None
        # When True, run() interprets max_parallel_time as the TOTAL budget
        # measured from interaction 0 (resume semantics) rather than as
        # additional interactions from the current position.
        self._resumed = False
        # Stateful-predicate memory recovered from a checkpoint, applied on
        # the next run() (after its reset) and then discarded.
        self._pending_convergence_state: Optional[dict] = None

    def _warm_views(self) -> None:
        """Compile the output map and every view declared by the predicate
        and the recorders.

        For protocols with a declared state space (a reachable closure)
        this evaluates each state's output symbol and each declared view
        over the whole space once, at simulation-construction time; per-check observation is then purely
        a vector reduction.  Lazily discovering protocols still extend the
        vectors as states register.
        """
        table = self.engine.table
        table.output_id_array(len(table.encoder))
        for view in getattr(self.convergence, "views", ()):
            table.view_values(view)
        for recorder in self.recorders:
            for view in getattr(recorder, "views", ()):
                table.view_values(view)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint_payload(self) -> dict:
        """Resumable description of this run: engine snapshot + metadata."""
        engine_cls = type(self.engine)
        for name, cls in ENGINE_REGISTRY.items():
            if cls is engine_cls:
                engine_spec = name
                break
        else:  # pragma: no cover - custom engine classes
            engine_spec = f"{engine_cls.__module__}:{engine_cls.__qualname__}"
        if self._fingerprint is None:
            self._fingerprint = self.protocol.fingerprint()
        payload = {
            "kind": "simulation",
            "engine_cls": engine_spec,
            "engine_kwargs": dict(self.engine_kwargs),
            "engine_snapshot": self.engine.snapshot(),
            "protocol": self.protocol.name,
            # Full content identity: protocols share their class-level name
            # across parameterisations (every GSULeaderElection is
            # "gsu19-leader-election"), so resume validation must compare
            # parameters too — continuing a run under different transition
            # rules would silently produce a trajectory that is neither the
            # original nor a valid fresh one.
            "protocol_fingerprint": self._fingerprint,
            "n": self.n,
            "seed": self.seed,
            "check_every": self.check_every,
            # Stateful predicates (StableOutputs' streak) must survive the
            # interrupt, or a resumed run converges later than the
            # uninterrupted one; the type tag guards against restoring the
            # memory into a different predicate on resume.
            "convergence_type": type(self.convergence).__name__,
            "convergence_state": self.convergence.state_snapshot(),
        }
        # Present only for disrupted runs: the scenario (a picklable frozen
        # dataclass) is part of the world the trajectory depends on, so a
        # resume must reconstruct — and may not silently change — it.
        # Default runs keep the pre-scenario payload layout.
        if self.scenario is not None:
            payload["scenario"] = self.scenario
        return payload

    def write_checkpoint(self) -> Path:
        """Atomically write the current checkpoint to ``checkpoint_path``."""
        if self.checkpoint_path is None:
            raise ConfigurationError("this simulation has no checkpoint_path")
        # Lazy import: the experiments package imports this module at load
        # time, so a top-level import here would be circular.
        from repro.experiments.io import write_checkpoint

        path = write_checkpoint(self.checkpoint_payload(), self.checkpoint_path)
        self._last_checkpoint = self.engine.interactions
        return path

    @classmethod
    def from_checkpoint(
        cls,
        protocol: PopulationProtocol,
        checkpoint: Union[dict, str, Path],
        *,
        convergence: Optional[ConvergencePredicate] = None,
        recorders: Optional[Sequence[Recorder]] = None,
        check_every: CheckEvery = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        engine_kwargs: Optional[dict] = None,
        scenario=None,
    ) -> "Simulation":
        """Rebuild a simulation from a checkpoint and resume bit-exactly.

        ``checkpoint`` is either a path to a file written by
        :meth:`write_checkpoint` (through
        :func:`repro.experiments.io.write_checkpoint`) or the payload
        dictionary itself.  ``protocol`` must be a (typically fresh)
        instance of the same protocol the checkpoint was taken from; the
        engine class, its constructor keywords, the seed bookkeeping and
        the check period are recovered from the checkpoint, and the engine
        state — configuration, interaction counter, RNG position, state
        layout — from the embedded snapshot.  Recorders are *not*
        checkpointed (a resumed run records from the resume point on), but
        stateful convergence predicates are: pass a fresh predicate of the
        same type as the interrupted run's and its internal memory
        (``StableOutputs``' streak) is restored from the checkpoint, so
        the resumed run converges at exactly the check the uninterrupted
        run would have.  A predicate of a different type ignores the
        recorded memory and starts fresh.

        The returned simulation is marked as resumed: ``run`` interprets
        ``max_parallel_time`` as the total budget from interaction 0, so
        passing the original budget makes the resumed run stop exactly
        where the uninterrupted run would have.
        """
        if not isinstance(checkpoint, dict):
            from repro.experiments.io import read_checkpoint

            checkpoint = read_checkpoint(checkpoint)
        if checkpoint.get("kind") != "simulation":
            raise CheckpointError(
                f"checkpoint kind {checkpoint.get('kind')!r} is not a "
                "simulation checkpoint"
            )
        if checkpoint.get("protocol") != protocol.name:
            raise CheckpointError(
                f"checkpoint was taken from protocol "
                f"{checkpoint.get('protocol')!r}, cannot resume with "
                f"{protocol.name!r}"
            )
        recorded = checkpoint.get("protocol_fingerprint")
        fingerprint = protocol.fingerprint()
        if recorded is not None and recorded != fingerprint:
            raise CheckpointError(
                f"checkpoint was taken from a {protocol.name!r} instance "
                f"with different parameters (recorded fingerprint "
                f"{recorded!r} != {fingerprint!r}); resuming "
                "under different transition rules would corrupt the "
                "trajectory — reconstruct the protocol with the original "
                "parameters"
            )
        if (
            checkpoint.get("check_every") == "auto"
            or checkpoint.get("auto_cadence") is not None
        ):
            raise CheckpointError(
                "checkpoint was taken under the retired adaptive check "
                "cadence (check_every='auto'), which no build continues; "
                "rerun the cell from its seed"
            )
        spec = checkpoint["engine_cls"]
        engine_cls = ENGINE_REGISTRY.get(spec)
        if engine_cls is None:
            # Custom engine classes are recorded as "module:qualname"; a
            # bare name outside the registry is an engine this build lacks.
            import importlib

            module_name, _, qualname = spec.partition(":")
            try:
                engine_cls = getattr(importlib.import_module(module_name), qualname)
            except (ImportError, AttributeError, ValueError):
                raise CheckpointError(
                    f"checkpoint was taken on engine {spec!r}, which this "
                    f"build does not provide; valid engine names are "
                    f"{', '.join(sorted(ENGINE_REGISTRY))}"
                ) from None
        if engine_kwargs is None:
            engine_kwargs = checkpoint.get("engine_kwargs") or {}
        # The recorded scenario is authoritative for reconstruction; a
        # caller-supplied scenario is only validated against it — resuming a
        # disrupted run into a different world (or a default run into a
        # disrupted one) would corrupt the trajectory.
        recorded_scenario = checkpoint.get("scenario")
        if scenario is not None:
            from repro.scenarios.scenario import active_scenario

            requested = active_scenario(scenario)
            recorded_desc = (
                None if recorded_scenario is None else recorded_scenario.describe()
            )
            requested_desc = None if requested is None else requested.describe()
            if recorded_desc != requested_desc:
                raise CheckpointError(
                    f"checkpoint was taken under scenario {recorded_desc!r}, "
                    f"cannot resume under scenario {requested_desc!r}"
                )
        simulation = cls(
            protocol,
            int(checkpoint["n"]),
            rng=checkpoint.get("seed"),
            engine_cls=engine_cls,
            engine_kwargs=engine_kwargs,
            convergence=convergence,
            recorders=recorders,
            check_every=(
                check_every if check_every is not None else checkpoint.get("check_every")
            ),
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            scenario=recorded_scenario,
        )
        simulation.engine.restore(checkpoint["engine_snapshot"])
        simulation._last_checkpoint = simulation.engine.interactions
        simulation._fingerprint = fingerprint
        simulation._resumed = True
        recorded_state = checkpoint.get("convergence_state")
        if (
            recorded_state is not None
            and checkpoint.get("convergence_type")
            == type(simulation.convergence).__name__
        ):
            simulation._pending_convergence_state = recorded_state
        return simulation

    # ------------------------------------------------------------------
    def add_recorder(self, recorder: Recorder) -> Recorder:
        """Attach a recorder and return it (for chaining).

        The recorder's declared views are warmed immediately, like those of
        recorders passed to the constructor.
        """
        self.recorders.append(recorder)
        for view in getattr(recorder, "views", ()):
            self.engine.table.view_values(view)
        return recorder

    def _on_check(self, engine: BaseEngine, aligned: bool) -> None:
        """Per-check hook: recorders, then a due checkpoint if ``aligned``
        (see :func:`~repro.engine.base.drive_checks`)."""
        for recorder in self.recorders:
            recorder.record(engine)
        if (
            aligned
            and self.checkpoint_every is not None
            and engine.interactions - self._last_checkpoint >= self.checkpoint_every
        ):
            self.write_checkpoint()

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        max_parallel_time: float,
        raise_on_budget: bool = False,
    ) -> RunResult:
        """Run until convergence or until ``max_parallel_time`` is exhausted.

        Parameters
        ----------
        max_parallel_time:
            Interaction budget expressed in parallel-time units.  For a
            simulation built by :meth:`from_checkpoint` this is the *total*
            run budget measured from interaction 0 (a resumed run given the
            original budget finishes the original run); otherwise it counts
            from the engine's current position.
        raise_on_budget:
            When ``True`` a :class:`~repro.errors.ConvergenceError` is raised
            if the budget runs out; otherwise a non-converged
            :class:`RunResult` is returned.
        """
        if max_parallel_time <= 0:
            raise ConfigurationError(
                f"max_parallel_time must be positive, got {max_parallel_time}"
            )
        self.convergence.reset()
        if self._pending_convergence_state is not None:
            self.convergence.state_restore(self._pending_convergence_state)
            self._pending_convergence_state = None
        engine = self.engine
        deadline = int(round(max_parallel_time * self.n))
        if not self._resumed:  # resumed budgets count from interaction 0
            deadline += engine.interactions
        use_hook = bool(self.recorders) or self.checkpoint_every is not None
        started = _time.perf_counter()
        converged = drive_checks(
            engine,
            self.convergence,
            deadline,
            self._period,
            self._on_check if use_hook else None,
        )
        elapsed = _time.perf_counter() - started
        if not converged and raise_on_budget:
            raise ConvergenceError(
                self.engine.interactions,
                f"protocol {self.protocol.name!r} with n={self.n} did not satisfy "
                f"{self.convergence.description!r}",
            )
        return self.result(converged=converged, wall_clock_seconds=elapsed)

    def result(self, *, converged: bool, wall_clock_seconds: float = 0.0) -> RunResult:
        """Build a :class:`RunResult` from the engine's current state."""
        engine = self.engine
        metadata: Dict[str, object] = {}
        if self.scenario is not None:
            metadata["scenario"] = self.scenario.label()
            counters = getattr(engine, "scenario_counters", None)
            if counters is not None:
                events = counters()
                if events is not None:
                    metadata["scenario_events"] = events
        return RunResult.of(
            engine,
            self.seed,
            converged,
            wall_clock_seconds=wall_clock_seconds,
            metadata=metadata,
        )


def run_protocol(
    protocol: PopulationProtocol,
    n: int,
    *,
    seed: RngLike = None,
    max_parallel_time: float = 1024.0,
    convergence: Optional[ConvergencePredicate] = None,
    recorders: Optional[Sequence[Recorder]] = None,
    engine_cls: EngineSpec = SequentialEngine,
    engine_kwargs: Optional[dict] = None,
    check_every: CheckEvery = None,
    raise_on_budget: bool = False,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    scenario=None,
) -> RunResult:
    """Run ``protocol`` on ``n`` agents and return the :class:`RunResult`.

    This is the main one-call entry point of the simulation substrate:

    >>> from repro.protocols.slow import SlowLeaderElection
    >>> result = run_protocol(SlowLeaderElection(), 16, seed=1,
    ...                       max_parallel_time=500.0)
    >>> result.converged
    True
    >>> result.leader_count
    1
    >>> result.n, result.seed
    (16, 1)

    Parameters
    ----------
    protocol:
        The protocol to simulate.
    n:
        Population size.
    seed:
        Seed or generator; equal seeds give identical runs.
    max_parallel_time:
        Interaction budget in parallel-time units (interactions / ``n``).
        For a resumed run this is the *total* budget measured from
        interaction 0.
    convergence:
        Convergence predicate; defaults to "exactly one leader".
    recorders:
        Observers invoked at every convergence check point.
    engine_cls:
        An engine class, a registry name (``"sequential"``,
        ``"countbatch"``, ``"fastbatch"``) or ``"auto"`` to dispatch on
        ``(protocol, n)`` — see :mod:`repro.engine.dispatch`.
        For ``n >= 10^7`` population sizes use ``"countbatch"`` (or
        ``"auto"``): it is exact in distribution, needs ``O(k)`` memory,
        and beats the C kernel's throughput there.
    engine_kwargs:
        Extra engine-constructor keywords (e.g. ``{"kernel": "numpy"}``).
    check_every:
        Convergence-check period in interactions (default: ``n``).
    raise_on_budget:
        Raise :class:`~repro.errors.ConvergenceError` instead of returning
        a non-converged result.
    checkpoint_every:
        Write a resumable checkpoint to ``checkpoint_path`` at every check
        point at least this many interactions after the previous one
        (atomic write-replace; see the module docstring for the full
        interrupt-and-resume recipe).
    checkpoint_path:
        Checkpoint file location; with ``resume=True`` also the file to
        resume from.
    resume:
        When ``True`` and ``checkpoint_path`` exists, restore the engine
        from it bit-exactly (``engine_cls`` and ``seed`` are then taken
        from the checkpoint) and continue until the total budget.  When the
        file does not exist the run simply starts from scratch, so the same
        command line works for both the first attempt and every retry.
    scenario:
        Optional :class:`~repro.scenarios.scenario.Scenario` (topology +
        churn + faults); ``None`` is the idealised complete fault-free
        world.  On resume the checkpoint's recorded scenario is used and a
        caller-supplied one is validated against it.
    """
    if resume and checkpoint_path is not None and Path(checkpoint_path).exists():
        from repro.experiments.io import read_checkpoint

        payload = read_checkpoint(checkpoint_path)
        # The caller's n is authoritative for what they *meant* to run; a
        # checkpoint for a different population size must not be resumed
        # silently at its old size.
        if int(payload.get("n", -1)) != int(n):
            raise CheckpointError(
                f"checkpoint {checkpoint_path} was taken at population size "
                f"{payload.get('n')}, but this run asked for n={n}; delete "
                "the checkpoint (or point checkpoint_path elsewhere) to "
                "start a fresh run at the new size"
            )
        simulation = Simulation.from_checkpoint(
            protocol,
            payload,
            convergence=convergence,
            recorders=recorders,
            check_every=check_every,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            engine_kwargs=engine_kwargs,
            scenario=scenario,
        )
    else:
        simulation = Simulation(
            protocol,
            n,
            rng=seed,
            engine_cls=engine_cls,
            engine_kwargs=engine_kwargs,
            convergence=convergence,
            recorders=recorders,
            check_every=check_every,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            scenario=scenario,
        )
    return simulation.run(
        max_parallel_time=max_parallel_time, raise_on_budget=raise_on_budget
    )
