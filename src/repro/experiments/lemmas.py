"""Lemma-level validation experiments (``lemma41``, ``lemma53``, ``lemma71``,
``lemma73``) and the phase-clock round-length experiment (``clock``).

The paper's evaluation is analytical; beyond the headline theorem its
quantitative content lives in the lemmas.  Each experiment here measures the
quantity a lemma bounds and reports it against the bound's shape:

* **Lemma 4.1** — the number of agents never given a role (deactivated at the
  end of the first round) is ``O(n / log n)``.
* **Lemma 5.3** — the junta size lies in ``[n^0.45, n^0.77]``.
* **Lemma 7.1** — the inhibitor drag groups have size ``≈ (n/4)·4^{-ℓ}``.
* **Lemma 7.3** — reducing ``c·log n`` active candidates to one by repeated
  almost-fair coin flips takes ``O(log log n)`` rounds in expectation; this is
  checked on the abstract round process (direct Monte Carlo).
* **Theorem 3.2** (``clock``) — the junta-driven phase clock's rounds take
  ``Θ(log n)`` parallel time.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List

import numpy as np

from repro.analysis.stats import summarize
from repro.clocks.phase_clock import JuntaPhaseClockProtocol
from repro.clocks.round_tracker import PhaseStatistics, RoundLengthEstimator
from repro.coins.analysis import coin_level_histogram, junta_bounds
from repro.core.monitor import UNINITIALISED_VIEW, inhibitor_drag_census, role_census
from repro.core.protocol import GSULeaderElection
from repro.core.theory import predicted_drag_group_sizes
from repro.engine.base import BaseEngine
from repro.engine.convergence import ConvergencePredicate
from repro.engine.parallel import run_cells
from repro.engine.rng import make_rng, spawn_seeds
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ExperimentResult,
    final_metrics,
    metric_recorders,
    never_converge,
    timed,
)
from repro.types import Role

__all__ = [
    "run_lemma41",
    "run_lemma53",
    "run_lemma71",
    "run_lemma73",
    "run_clock",
    "simulate_final_elimination_rounds",
]


class _Settled(ConvergencePredicate):
    """Convergence factory: every agent has a fixed role
    (:meth:`GSULeaderElection.no_uninitialised_agents`, one reduction over a
    compiled view), then ``after·log2 n`` more parallel time.  Experiment
    cells never checkpoint, so the settle point is not snapshotted."""

    views = (UNINITIALISED_VIEW,)

    def __init__(self, n: int, after: float = 0.0) -> None:
        self.extra = int(round(after * math.log2(n) * n))
        self.description = f"no uninitialised agents, then {self.extra} interactions"
        self.reset()

    def reset(self) -> None:
        self._settled_at = None

    def __call__(self, engine: BaseEngine) -> bool:
        if self._settled_at is None and GSULeaderElection.no_uninitialised_agents(engine):
            self._settled_at = engine.interactions
        return self._settled_at is not None and (
            engine.interactions >= self._settled_at + self.extra
        )


def _deactivated(engine: BaseEngine) -> int:
    return role_census(engine).get(Role.DEACTIVATED, 0)


def _junta_size(engine: BaseEngine) -> int:
    return coin_level_histogram(engine, max_level=engine.protocol.params.phi).junta_size


# ----------------------------------------------------------------------
# Lemma 4.1
# ----------------------------------------------------------------------
@timed
def run_lemma41(config: ExperimentConfig) -> ExperimentResult:
    """Fraction of agents that never received a working role."""
    result = ExperimentResult(
        experiment="lemma41",
        description=(
            "Agents deactivated at the end of the first round (never given a "
            "role) as a fraction of n, versus the O(1/log n) bound of "
            "Lemma 4.1."
        ),
    )
    table = result.add_table(
        "uninitialised agents",
        ["n", "deactivated (mean)", "fraction of n", "1/log2 n", "fraction · log2 n"],
    )
    observations = final_metrics(
        GSULeaderElection.for_population, config, _deactivated, _Settled, seed_offset=41
    )
    for n, counts in observations.items():
        summary = summarize(counts)
        fraction = summary.mean / n
        table.add_row(
            n,
            f"{summary.mean:.1f}",
            f"{fraction:.4f}",
            f"{1.0 / math.log2(n):.4f}",
            f"{fraction * math.log2(n):.2f}",
        )
    return result


# ----------------------------------------------------------------------
# Lemma 5.3
# ----------------------------------------------------------------------
@timed
def run_lemma53(config: ExperimentConfig) -> ExperimentResult:
    """Junta size versus the ``[n^0.45, n^0.77]`` window."""
    result = ExperimentResult(
        experiment="lemma53",
        description="Junta size (coins at level Φ) versus the window of Lemma 5.3.",
    )
    table = result.add_table(
        "junta size",
        ["n", "junta (mean)", "junta (min)", "junta (max)", "n^0.45", "n^0.77", "all inside"],
    )
    observations = final_metrics(
        GSULeaderElection.for_population, config, _junta_size, _Settled, seed_offset=53
    )
    for n, sizes in observations.items():
        low, high = junta_bounds(n)
        summary = summarize(sizes)
        inside = all(low <= size <= high for size in sizes)
        table.add_row(
            n,
            f"{summary.mean:.1f}",
            f"{summary.minimum:.0f}",
            f"{summary.maximum:.0f}",
            f"{low:.1f}",
            f"{high:.1f}",
            "yes" if inside else "NO",
        )
    return result


# ----------------------------------------------------------------------
# Lemma 7.1
# ----------------------------------------------------------------------
@timed
def run_lemma71(config: ExperimentConfig) -> ExperimentResult:
    """Inhibitor drag-group sizes versus ``(n/4)·4^{-ℓ}``."""
    result = ExperimentResult(
        experiment="lemma71",
        description=(
            "Number of inhibitors whose drag counter stopped at each value l, "
            "versus the geometric prediction of Lemma 7.1."
        ),
    )
    table = result.add_table(
        "drag groups",
        ["n", "drag l", "measured D_l (mean)", "predicted D_l", "measured/predicted"],
    )
    # Inhibitor preprocessing needs a couple of late half-rounds after
    # the clock starts: observe 4·log2 n parallel time past the settle.
    settled = functools.partial(_Settled, after=4.0)
    observations = final_metrics(
        GSULeaderElection.for_population, config, inhibitor_drag_census, settled, seed_offset=71
    )
    for n, censuses in observations.items():
        per_level: Dict[int, List[int]] = {}
        for census in censuses:
            for level, count in census.items():
                per_level.setdefault(level, []).append(count)
        psi = GSULeaderElection.for_population(n).params.psi
        predicted = predicted_drag_group_sizes(n, psi)
        for level in sorted(per_level):
            measured = summarize(per_level[level])
            prediction = predicted[level] if level < len(predicted) else float("nan")
            ratio = measured.mean / prediction if prediction else float("nan")
            table.add_row(
                n, level, f"{measured.mean:.1f}", f"{prediction:.1f}", f"{ratio:.2f}"
            )
    return result


# ----------------------------------------------------------------------
# Lemma 7.3
# ----------------------------------------------------------------------
def simulate_final_elimination_rounds(
    candidates: int, heads_probability: float, rng, max_rounds: int = 10_000
) -> int:
    """Monte-Carlo simulation of the abstract final-elimination round process.

    Each round every remaining candidate flips heads with probability
    ``heads_probability``; if at least one heads occurs only the heads
    flippers survive, otherwise the round is void.  Returns the number of
    rounds until one candidate remains.
    """
    remaining = int(candidates)
    rounds = 0
    while remaining > 1 and rounds < max_rounds:
        heads = int(rng.binomial(remaining, heads_probability))
        if heads >= 1:
            remaining = heads
        rounds += 1
    return rounds


@timed
def run_lemma73(config: ExperimentConfig) -> ExperimentResult:
    """Expected number of final-elimination rounds from ``c log n`` candidates."""
    result = ExperimentResult(
        experiment="lemma73",
        description=(
            "Rounds needed to reduce c·log n candidates to a single one by "
            "repeated almost-fair coin flips (abstract Monte Carlo of the "
            "process analysed in Lemma 7.3), versus the O(log log n) bound."
        ),
    )
    table = result.add_table(
        "rounds to a single candidate",
        [
            "n",
            "initial candidates (c log2 n, c=2)",
            "rounds (mean)",
            "rounds (p95)",
            "log_{6/5}(c log n)",
            "loglog2 n",
        ],
    )
    rng = make_rng(config.base_seed + 73)
    trials = max(200, config.repetitions * 100)
    heads_probability = 0.25  # the level-0 coin's bias (C_0/n ≈ 1/4)
    for n in config.population_sizes:
        log_n = math.log2(n)
        initial = max(2, int(round(2 * log_n)))
        rounds = [
            simulate_final_elimination_rounds(initial, heads_probability, rng)
            for _ in range(trials)
        ]
        summary = summarize(rounds)
        p95 = float(np.quantile(np.array(rounds, dtype=float), 0.95))
        table.add_row(
            n,
            initial,
            f"{summary.mean:.2f}",
            f"{p95:.1f}",
            f"{math.log(initial) / math.log(6.0 / 5.0):.1f}",
            f"{math.log2(max(2.0, log_n)):.2f}",
        )
    result.metadata["trials_per_size"] = trials
    return result


# ----------------------------------------------------------------------
# Theorem 3.2 (phase clock)
# ----------------------------------------------------------------------
def _clock_protocol(n: int) -> JuntaPhaseClockProtocol:
    return JuntaPhaseClockProtocol.for_population(n, gamma=24)


def _phase_statistics(engine: BaseEngine) -> PhaseStatistics:
    protocol = engine.protocol
    return PhaseStatistics.from_engine(engine, protocol.phase_of, protocol.gamma)


@timed
def run_clock(config: ExperimentConfig) -> ExperimentResult:
    """Phase-clock round lengths versus ``log n``."""
    result = ExperimentResult(
        experiment="clock",
        description=(
            "Parallel-time length of junta-driven phase-clock rounds "
            "(Theorem 3.2): rounds should take Θ(log n) parallel time."
        ),
    )
    table = result.add_table(
        "round length",
        ["n", "gamma", "junta size", "rounds observed", "round length (mean)", "round length / log2 n"],
    )
    seeds = spawn_seeds(config.base_seed + 32, len(config.population_sizes))
    for n, seed in zip(config.population_sizes, seeds):
        protocol = _clock_protocol(n)
        period = max(1, n // 4)
        checks = int(60 * math.log2(n))  # of n/4 interactions: 15·log2 n parallel time
        (point,) = run_cells(
            _clock_protocol,
            n,
            [seed],
            max_parallel_time=checks * period / n,
            convergence_factory=never_converge,
            recorder_factory=metric_recorders(_phase_statistics),
            check_every=period,
            engine=config.engine,
            workers=config.workers,
        )
        estimator = RoundLengthEstimator(gamma=protocol.gamma)
        # values[0] is the check at interaction 0, before the first period.
        for statistics in point.recorders[0].values[1:]:
            estimator.observe(statistics)
        lengths = estimator.round_lengths()
        if lengths:
            summary = summarize(lengths)
            table.add_row(
                n,
                protocol.gamma,
                protocol.junta_size,
                len(lengths),
                f"{summary.mean:.1f}",
                f"{summary.mean / math.log2(n):.2f}",
            )
        else:
            table.add_row(n, protocol.gamma, protocol.junta_size, 0, "n/a", "n/a")
    return result
