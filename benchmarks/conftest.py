"""Shared configuration for the benchmark suite.

Every benchmark regenerates (a smoke-sized version of) one of the paper's
figures or lemmas through the same experiment harness the CLI uses, so that
``pytest benchmarks/ --benchmark-only`` both exercises the full pipeline and
reports how long each experiment takes.  README's experiment table runs
the ``default`` preset through the CLI; the benchmarks use the ``smoke``
preset (or small direct workloads) to stay minutes-scale.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig


@pytest.fixture(scope="session")
def smoke_config() -> ExperimentConfig:
    """The smoke-sized sweep used by all experiment benchmarks."""
    return ExperimentConfig.smoke()


@pytest.fixture(scope="session")
def tiny_config() -> ExperimentConfig:
    """An even smaller configuration for the slowest experiments."""
    return ExperimentConfig(
        population_sizes=(128,),
        repetitions=1,
        max_parallel_time=6000.0,
        slow_protocol_max_n=128,
    )
