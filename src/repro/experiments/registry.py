"""Registry mapping experiment identifiers to their runners.

The CLI, the benchmarks and the documentation all refer to experiments by
the identifiers in README's experiment table (``table1``, ``figure1`` …);
this module is the single source of truth for that mapping.

:func:`run_experiment` optionally consults the on-disk experiment store
(:mod:`repro.experiments.store`): with ``store=`` every completed
experiment is persisted under a content hash of ``(experiment name,
configuration)``, and with ``resume=True`` a rerun loads the stored result
instead of recomputing it — the CLI surfaces this as ``--store DIR``
(+ ``--resume``), which makes ``run-all`` restartable after a crash.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Dict, List, Union

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.lemmas import (
    run_clock,
    run_lemma41,
    run_lemma53,
    run_lemma71,
    run_lemma73,
)
from repro.experiments.matrix import run_matrix
from repro.experiments.runner import ExperimentResult
from repro.experiments.table1 import run_table1

__all__ = [
    "available_experiments",
    "experiment_key",
    "get_experiment",
    "run_experiment",
]

ExperimentRunner = Callable[[ExperimentConfig], ExperimentResult]

_REGISTRY: Dict[str, ExperimentRunner] = {
    "table1": run_table1,
    "figure1": run_figure1,
    "figure2": run_figure2,
    "figure3": run_figure3,
    "lemma41": run_lemma41,
    "lemma53": run_lemma53,
    "lemma71": run_lemma71,
    "lemma73": run_lemma73,
    "clock": run_clock,
    "matrix": run_matrix,
}


def available_experiments() -> List[str]:
    """Identifiers of all registered experiments."""
    return sorted(_REGISTRY)


def get_experiment(name: str) -> ExperimentRunner:
    """Look up an experiment runner by identifier."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        ) from None


def _config_fields(config: ExperimentConfig) -> Dict[str, object]:
    """JSON-safe, key-stable field dict of a configuration.

    ``dataclasses.asdict`` would type-erase the scenario's nested frozen
    dataclasses (the topology subclasses carry their identity in their
    class, not in fields), so the scenario is replaced by its
    :meth:`~repro.scenarios.Scenario.describe` dict — and dropped entirely
    when ``None``, which keeps every key minted before the field existed
    valid.
    """
    fields = dataclasses.asdict(config)
    fields.pop("scenario", None)
    if config.scenario is not None:
        fields["scenario"] = config.scenario.describe()
    return fields


def experiment_key(name: str, config: ExperimentConfig) -> str:
    """Content key of one ``(experiment, configuration)`` combination.

    Hashes the experiment identifier together with every *result-affecting*
    field of the configuration, so changing any sweep knob — sizes,
    repetitions, budget, seed, engine, scenario — keys a different record.
    The ``workers`` field is deliberately excluded: the sweep scheduler is
    bit-identical at every worker count, so a result computed serially is
    the result a 8-worker rerun would recompute — excluding the knob lets
    the rerun reuse it (and keeps keys minted before the field existed
    valid).  A ``None`` scenario is likewise excluded (see
    :func:`_config_fields`).
    """
    from repro.experiments.store import content_key

    fields = _config_fields(config)
    fields.pop("workers", None)
    return content_key(
        {
            "kind": "experiment",
            "experiment": name,
            "config": fields,
        }
    )


def run_experiment(
    name: str,
    config: ExperimentConfig,
    *,
    store: Union["ExperimentStore", str, Path, None] = None,  # noqa: F821
    resume: bool = False,
) -> ExperimentResult:
    """Run one experiment by identifier.

    Parameters
    ----------
    name:
        Experiment identifier (see :func:`available_experiments`).
    config:
        Sweep configuration.
    store:
        Optional on-disk experiment store (directory path or
        :class:`~repro.experiments.store.ExperimentStore`).  The completed
        result is persisted under :func:`experiment_key`.
    resume:
        With a store, return the stored result when one exists for this
        exact ``(name, config)`` instead of re-running; loaded results are
        marked with ``metadata["loaded_from_store"] = True``.
    """
    runner = get_experiment(name)
    if store is None:
        return runner(config)
    from repro.experiments.store import ExperimentStore

    store = ExperimentStore.ensure(store)
    key = experiment_key(name, config)
    if resume:
        cached = store.load_experiment(key)
        if cached is not None:
            cached.metadata["loaded_from_store"] = True
            return cached
    result = runner(config)
    store.save_experiment(
        key,
        result,
        inputs={"experiment": name, "config": _config_fields(config)},
    )
    return result
