"""Shared fixtures for the test suite.

The fixtures provide small, fast-to-simulate protocol instances and engines;
integration tests that need longer runs build their own engines with
explicit budgets so the cost is visible at the test site.
"""

from __future__ import annotations

import shutil

import pytest

from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.engine import closure
from repro.engine.engine import SequentialEngine
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.slow import SlowLeaderElection


@pytest.fixture(autouse=True, scope="session")
def session_closure_dir(tmp_path_factory):
    """Closure files go to a directory of this session, not the user's
    kernel cache: a calibration's first use in the session runs its BFS
    whatever an earlier run left on disk.  The compiled kernels stay in the
    kernel cache, so nothing is recompiled."""
    directory = tmp_path_factory.mktemp("closures")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closure, "closure_cache_dir", lambda: directory)
        yield directory
    shutil.rmtree(directory, ignore_errors=True)  # tens of MB per session


@pytest.fixture
def small_n() -> int:
    """Population size used by most engine-level tests."""
    return 64


@pytest.fixture
def slow_protocol() -> SlowLeaderElection:
    return SlowLeaderElection()


@pytest.fixture
def epidemic_protocol() -> OneWayEpidemic:
    return OneWayEpidemic(sources=1)


@pytest.fixture
def majority_protocol() -> ApproximateMajority:
    return ApproximateMajority(initial_a_fraction=0.75)


@pytest.fixture
def gsu_params() -> GSUParams:
    """Parameters for a small population (fast unit tests of the rules)."""
    return GSUParams.from_population_size(256)


@pytest.fixture
def gsu_protocol(gsu_params: GSUParams) -> GSULeaderElection:
    return GSULeaderElection(gsu_params)


@pytest.fixture
def slow_engine(slow_protocol: SlowLeaderElection, small_n: int) -> SequentialEngine:
    return SequentialEngine(slow_protocol, small_n, rng=7)
