"""Pinned table digests of every engine-driven experiment.  All of them run
their cells through the sweep scheduler
(:func:`repro.engine.parallel.run_many`/``run_cells``): to-convergence,
settle-predicate, fixed-horizon, recorder and scenario cells alike.  Each
pin must hold at one and at two worker processes: a pool reproduces the
serial tables byte for byte.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine import parallel
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.matrix import run_matrix
from repro.experiments.lemmas import run_clock, run_lemma41, run_lemma53, run_lemma71
from repro.experiments.table1 import run_table1
from repro.scenarios import get_scenario
from test_experiment_matrix import _tiny_config


def _digest(result) -> str:
    tables = [[table.name, table.headers, table.rows] for table in result.tables]
    return hashlib.sha256(json.dumps(tables, default=str).encode()).hexdigest()[:16]


_PINS = {
    "figure1": (run_figure1, ExperimentConfig.smoke, "3506e1b2e7130e82"),
    "lemma41": (run_lemma41, ExperimentConfig.smoke, "666a6b1b7e6a6c7c"),
    "lemma53": (run_lemma53, ExperimentConfig.smoke, "74d6f6a96b18de41"),
    "lemma71": (run_lemma71, ExperimentConfig.smoke, "23b3a936600eece8"),
    "clock": (run_clock, ExperimentConfig.smoke, "83a3207c3d9d98e1"),
    "figure2": (run_figure2, ExperimentConfig.smoke, "88372f9510af5289"),
    "figure3": (run_figure3, ExperimentConfig.smoke, "3a6ef3e35d38c3b2"),
    "table1-cycle": (
        run_table1,
        lambda: ExperimentConfig.smoke()
        .with_sizes((128,))
        .with_scenario(get_scenario("cycle")),
        "d597ed73598ae988",
    ),
    "matrix": (run_matrix, _tiny_config, "a32a5c9d0a6cd679"),
}


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("name", sorted(_PINS))
def test_experiment_tables_are_pinned(name, workers, monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    run, config, pinned = _PINS[name]
    assert _digest(run(config().with_workers(workers))) == pinned
