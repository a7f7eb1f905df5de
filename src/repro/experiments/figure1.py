"""Experiment ``figure1`` — coin sub-populations and their biases (Figure 1).

Figure 1 of the paper sketches the idealised sizes of the coin level
populations ``C_0 ≈ n/4, C_1 ≈ n/16, …, C_Φ ≈ n^{1-a}`` and the heads
probabilities of the asymmetric coins they implement.  This experiment runs
the full protocol just past its coin-preprocessing phase, censuses the coin
levels, and compares:

* the measured ``C_ℓ`` (coins at level ``≥ ℓ``) against the recursion
  ``C_{ℓ+1} = C_ℓ²/n`` of Lemmas 5.1–5.2,
* the measured junta size ``C_Φ`` against the ``[n^0.45, n^0.77]`` window of
  Lemma 5.3,
* the measured heads probability of each coin level (``C_ℓ/n``) against the
  idealised value.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.stats import summarize
from repro.coins.analysis import CoinLevelObservation, coin_level_histogram, junta_bounds
from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.core.theory import predicted_level_counts
from repro.engine.base import BaseEngine
from repro.engine.convergence import AllAgentsSatisfy
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, final_metrics, timed
from repro.types import CoinMode, Role

__all__ = ["run_figure1"]


def _preprocessing_finished(state) -> bool:
    """The agent has a role and, if a coin, no longer advances its level."""
    if state.role == Role.COIN:
        return state.coin_mode != CoinMode.ADVANCING
    return state.role not in (Role.ZERO, Role.X)


def _preprocessing_settled(n: int) -> AllAgentsSatisfy:
    """Convergence factory: every agent has received its role (or
    deactivated) and no coin can change its level any more, so the census
    is the protocol's final coin stratification."""
    return AllAgentsSatisfy(_preprocessing_finished, "roles fixed and coin levels final")


def _coin_census(engine: BaseEngine) -> CoinLevelObservation:
    """The coin levels ``0..Φ`` of the current configuration."""
    return coin_level_histogram(engine, max_level=engine.protocol.params.phi)


@timed
def run_figure1(config: ExperimentConfig) -> ExperimentResult:
    """Run the Figure 1 experiment under ``config``."""
    result = ExperimentResult(
        experiment="figure1",
        description=(
            "Coin level populations C_l after preprocessing, their implied "
            "heads probabilities, and the junta size versus the window of "
            "Lemma 5.3."
        ),
    )
    levels_table = result.add_table(
        "coin levels",
        [
            "n",
            "level",
            "measured C_l (mean)",
            "idealised C_l",
            "measured heads prob",
            "idealised heads prob",
        ],
    )
    junta_table = result.add_table(
        "junta size (Lemma 5.3)",
        ["n", "junta size (mean)", "window low n^0.45", "window high n^0.77", "inside window"],
    )

    observations = final_metrics(
        GSULeaderElection.for_population, config, _coin_census, _preprocessing_settled
    )
    for n, censuses in observations.items():
        per_level: Dict[int, List[int]] = {}
        for census in censuses:
            for level, count in enumerate(census.at_least):
                per_level.setdefault(level, []).append(count)
        phi = GSUParams.from_population_size(n).phi
        idealised = predicted_level_counts(n, phi)
        for level in sorted(per_level):
            measured = summarize(per_level[level])
            ideal = idealised[level] if level < len(idealised) else float("nan")
            levels_table.add_row(
                n,
                level,
                f"{measured.mean:.1f}",
                f"{ideal:.1f}",
                f"{measured.mean / n:.4f}",
                f"{ideal / n:.4f}",
            )
        low, high = junta_bounds(n)
        junta_summary = summarize([census.junta_size for census in censuses])
        junta_table.add_row(
            n,
            f"{junta_summary.mean:.1f}",
            f"{low:.1f}",
            f"{high:.1f}",
            "yes" if low <= junta_summary.mean <= high else "NO",
        )
    result.metadata.update(
        {
            "population_sizes": list(config.population_sizes),
            "repetitions": config.repetitions,
        }
    )
    return result
