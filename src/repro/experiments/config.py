"""Experiment configuration.

A single :class:`ExperimentConfig` object parameterises every experiment:
which population sizes to sweep, how many independent seeds per size, the
per-run parallel-time budget and the top-level seed.  Three presets cover
the common uses:

* :meth:`ExperimentConfig.smoke` — minutes-scale sanity run used by the test
  suite and the pytest-benchmark targets,
* :meth:`ExperimentConfig.default` — the configuration of README's
  reproduction commands (``--preset default``),
* :meth:`ExperimentConfig.large` — the heavier sweep for readers with more
  patience (bigger ``n``, more seeds); invoked through the CLI,
* :meth:`ExperimentConfig.headline` — the ``n = 10^7``/``10^8`` GSU19 tier
  on ``engine="auto"``: fast-batch C kernel at ``10^7``, the O(k)-memory
  configuration-space engine at ``10^8`` (at most about 30 minutes per
  seed at ``10^7``, ``10^8`` unmeasured; one seed per size),
* :meth:`ExperimentConfig.extreme` — count-space GSU19 at ``n = 10^12``
  through the compiled count kernel (O(k) memory, under 1 GiB peak).

The configuration is a frozen dataclass on purpose: the experiment store
(:mod:`repro.experiments.store`) hashes ``dataclasses.asdict(config)``
together with the experiment identifier into the record key for CLI-level
``--store``/``--resume``, so every field change — sizes, repetitions,
budget, seed, engine — keys a distinct stored record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.engine.dispatch import ENGINE_NAMES
from repro.errors import ConfigurationError

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters shared by all experiments."""

    #: Population sizes to sweep (each experiment may subset or cap them).
    population_sizes: tuple = (256, 512, 1024, 2048)
    #: Independent seeds per population size.
    repetitions: int = 5
    #: Top-level seed from which per-run seeds are spawned.
    base_seed: int = 20190622
    #: Per-run parallel-time budget (interactions / n).
    max_parallel_time: float = 20000.0
    #: Cap applied to population sizes for Θ(n)-time protocols so that the
    #: slow baselines do not dominate the harness's wall-clock time.
    slow_protocol_max_n: int = 1024
    #: Engine specification forwarded to every run: a registry name or
    #: ``"auto"`` (see the engine selection guide in :mod:`repro.engine`).
    #: The default stays the sequential reference engine so recorded numbers
    #: remain reproducible run-over-run.
    engine: str = "sequential"
    #: Worker processes for the sweep scheduler (``0``/``1`` = serial).
    #: Purely an execution knob: the scheduler is bit-identical at every
    #: worker count, so this field is excluded from experiment store keys
    #: (see :func:`repro.experiments.registry.experiment_key`).
    workers: int = 0
    #: Optional :class:`~repro.scenarios.Scenario` applied to every run:
    #: interaction topology plus churn and fault models.  ``None`` (the
    #: default) is the classical complete fault-free model and keys exactly
    #: as configurations minted before this field existed — the experiment
    #: store key only includes the scenario when one is set (see
    #: :func:`repro.experiments.registry.experiment_key`).
    scenario: Optional[object] = None

    def __post_init__(self) -> None:
        if not self.population_sizes:
            raise ConfigurationError("population_sizes must not be empty")
        if any(n < 8 for n in self.population_sizes):
            raise ConfigurationError(
                f"population sizes must be >= 8, got {self.population_sizes}"
            )
        sizes = self.population_sizes
        duplicates = sorted({n for n in sizes if sizes.count(n) > 1})
        if duplicates:
            raise ConfigurationError(
                f"population sizes must be distinct, {duplicates} repeat"
            )
        if self.repetitions < 1:
            raise ConfigurationError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        if self.max_parallel_time <= 0:
            raise ConfigurationError(
                f"max_parallel_time must be positive, got {self.max_parallel_time}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"engine must be one of {ENGINE_NAMES}, got {self.engine!r}"
            )
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {self.workers}"
            )
        if self.scenario is not None:
            from repro.scenarios import Scenario

            if not isinstance(self.scenario, Scenario):
                raise ConfigurationError(
                    f"scenario must be a repro.scenarios.Scenario or None, "
                    f"got {type(self.scenario).__name__}"
                )

    # ------------------------------------------------------------------
    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Tiny configuration for tests and benchmark smoke runs."""
        return cls(
            population_sizes=(128, 256),
            repetitions=2,
            max_parallel_time=6000.0,
            slow_protocol_max_n=256,
        )

    @classmethod
    def default(cls) -> "ExperimentConfig":
        """The configuration of README's reproduction commands."""
        return cls(
            population_sizes=(256, 512, 1024, 2048, 4096),
            repetitions=5,
            max_parallel_time=20000.0,
            slow_protocol_max_n=1024,
        )

    @classmethod
    def large(cls) -> "ExperimentConfig":
        """Heavier sweep (longer wall-clock; used via the CLI)."""
        return cls(
            population_sizes=(1024, 2048, 4096, 8192, 16384),
            repetitions=10,
            max_parallel_time=40000.0,
            slow_protocol_max_n=2048,
        )

    @classmethod
    def headline(cls) -> "ExperimentConfig":
        """The count-space scenario tier: GSU19 at ``n = 10^7`` and ``10^8``.

        Requires ``engine="auto"`` semantics: the dispatcher picks the
        fast-batch C kernel at ``10^7`` and the O(k)-memory
        ``CountBatchEngine`` at ``10^8`` (where per-agent engines would need
        gigabytes and a minutes-scale construction loop; GSU19's
        reachable-state closure of 1,789 states loads from its closure file,
        which the BFS writes on first use).  The Θ(n)-time baselines are
        capped hard — simulating them at this scale would measure nothing
        but wall clock.  The budget of 4,000 parallel time is ``4·10^10``
        interactions at ``10^7``; the fast-batch C kernel ran GSU19 there
        at 22.7–26.5M interactions/s over whole-run 100-PT windows (2-CPU
        host, ROADMAP's 2026-10-19 measurements), so a seed at ``10^7``
        takes at most about 30 minutes.  The run time at ``10^8`` has not
        been measured.  Repetitions default to a single seed.
        """
        return cls(
            population_sizes=(10**7, 10**8),
            repetitions=1,
            max_parallel_time=4000.0,
            slow_protocol_max_n=4096,
            engine="auto",
        )

    @classmethod
    def extreme(cls) -> "ExperimentConfig":
        """Count-space GSU19 at ``n = 10^12`` through the compiled kernel.

        The trillion-agent tier: the dispatcher forces the O(k)-memory
        ``CountBatchEngine``, whose compiled count kernel
        (:mod:`repro.engine._count_kernel`) executes whole collision-free
        batches — expected length ``~0.886 sqrt(n) ~ 886k`` interactions —
        per C call.  Peak memory stays under 1 GiB (the survival curve is
        capped at ``2^23`` entries and the packed LUT at the closure size;
        see ``count_batch.MAX_EXACT_N`` for the 2^53 exactness bound).
        The parallel-time budget is deliberately small: one unit is
        ``10^12`` interactions (~an hour at kernel throughput), and the
        paper's phenomena at this scale are per-parallel-time-unit
        trajectories, not long-horizon sweeps.  The weekly CI smoke runs
        this preset with ``--sizes``/``--budget`` overrides at reduced
        scale; without the C kernel the Python fallback path is exact but
        ~50x slower — budget accordingly.
        """
        return cls(
            population_sizes=(10**12,),
            repetitions=1,
            max_parallel_time=25.0,
            slow_protocol_max_n=4096,
            engine="auto",
        )

    # ------------------------------------------------------------------
    def sizes_capped(self, maximum: int) -> List[int]:
        """Population sizes not exceeding ``maximum`` (at least the smallest)."""
        sizes = [n for n in self.population_sizes if n <= maximum]
        if not sizes:
            sizes = [min(self.population_sizes)]
        return sizes

    def with_sizes(self, sizes: Sequence[int]) -> "ExperimentConfig":
        """Copy of the configuration with different population sizes."""
        return replace(self, population_sizes=tuple(int(n) for n in sizes))

    def with_repetitions(self, repetitions: int) -> "ExperimentConfig":
        """Copy of the configuration with a different repetition count."""
        return replace(self, repetitions=int(repetitions))

    def with_engine(self, engine: str) -> "ExperimentConfig":
        """Copy of the configuration with a different engine specification."""
        return replace(self, engine=str(engine))

    def with_workers(self, workers: int) -> "ExperimentConfig":
        """Copy of the configuration with a different worker-process count."""
        return replace(self, workers=int(workers))

    def with_scenario(self, scenario) -> "ExperimentConfig":
        """Copy of the configuration with a different scenario (or ``None``)."""
        return replace(self, scenario=scenario)
