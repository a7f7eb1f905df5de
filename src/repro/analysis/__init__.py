"""Statistics and model-fitting utilities for experiment results.

The experiments compare measured quantities against the *shapes* the paper
proves (``log n``, ``log n log log n``, ``log² n``, ``n`` …).  This package
provides

* :mod:`repro.analysis.stats` — summaries of repeated runs (means, standard
  errors, quantiles, bootstrap confidence intervals),
* :mod:`repro.analysis.scaling` — least-squares fits of measured times
  against candidate growth models and model selection between them,
* :mod:`repro.analysis.concentration` — Chernoff/Hoeffding helpers used by
  validation tests ("is this count within the concentration band the lemma
  promises?"),
* :mod:`repro.analysis.states` — state-usage accounting across protocols,
* :mod:`repro.analysis.tables` — plain-text / markdown table rendering for
  reports.
"""

from repro.analysis.stats import (
    KSResult,
    SampleSummary,
    bootstrap_mean_ci,
    ks_two_sample,
    quantile,
    quantile_profile_distance,
    summarize,
)
from repro.analysis.scaling import (
    GROWTH_MODELS,
    GrowthModel,
    FitResult,
    fit_growth_model,
    rank_models,
)
from repro.analysis.concentration import (
    chernoff_bound_above,
    chernoff_bound_below,
    hoeffding_interval,
    within_relative_tolerance,
)
from repro.analysis.states import StateUsage, state_usage_from_results
from repro.analysis.tables import format_markdown_table, format_text_table

__all__ = [
    "SampleSummary",
    "summarize",
    "quantile",
    "bootstrap_mean_ci",
    "KSResult",
    "ks_two_sample",
    "quantile_profile_distance",
    "GrowthModel",
    "GROWTH_MODELS",
    "FitResult",
    "fit_growth_model",
    "rank_models",
    "chernoff_bound_above",
    "chernoff_bound_below",
    "hoeffding_interval",
    "within_relative_tolerance",
    "StateUsage",
    "state_usage_from_results",
    "format_markdown_table",
    "format_text_table",
]
