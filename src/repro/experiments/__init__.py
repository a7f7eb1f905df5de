"""Experiment harness: one module per paper table / figure plus lemma checks.

Every experiment follows the same pattern: a workload generator (protocol +
population sizes + seeds), cells run through the sweep scheduler
(:mod:`repro.engine.parallel`, see :mod:`repro.experiments.runner`), and a
reporting step that produces an :class:`~repro.experiments.runner.ExperimentResult` containing
the same rows/series the paper reports.  ``repro.cli`` exposes them from the
command line and the ``benchmarks/`` directory wraps each one in a
pytest-benchmark target.

========================  ===================================================
experiment id             reproduces
========================  ===================================================
``table1``                Table 1 — states vs. time across protocols
``figure1``               Figure 1 — coin level populations and biases
``figure2``               Figure 2 — fast-elimination candidate counts
``figure3``               Figure 3 — slowing-down drag counter ticks
``lemma41``               Lemma 4.1 — uninitialised agents are ``O(n/log n)``
``lemma53``               Lemma 5.3 — junta size window
``lemma71``               Lemma 7.1 — inhibitor drag-group sizes
``lemma73``               Lemma 7.3 — final-elimination round count
``clock``                 Theorem 3.2 — phase-clock round length
========================  ===================================================
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, ExperimentTable
from repro.experiments.registry import (
    available_experiments,
    experiment_key,
    get_experiment,
    run_experiment,
)
from repro.experiments.store import ExperimentStore
from repro.experiments import io as experiment_io

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentStore",
    "ExperimentTable",
    "available_experiments",
    "experiment_key",
    "get_experiment",
    "run_experiment",
    "experiment_io",
]
