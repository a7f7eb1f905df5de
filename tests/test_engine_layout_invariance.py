"""State-id layout invariance, and the one layout rule it leaves.

Every table of GSU19 and GS18 is laid out over the protocol's reachable
closure — every reachable state registered in BFS order and every pair
compiled from the closure's LUT — for every engine and scenario.  For a
layout-free engine (:attr:`repro.engine.base.BaseEngine.layout_free`: the
sequential and fast-batch engines) these pins show the layout is
invisible: a run on the closure table reproduces the run on a fresh table
that discovers states lazily in this run's order, in interactions, final
counts, ``states_used``, leader count and the series of convergence
checks.  The count-space engine samples by state-id order, so for it the
layout is part of the trajectory: these pins show that a seed's count-batch
run is the same on a fresh table and on one another seed's run used first.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import GSULeaderElection
from repro.engine._ckernel import kernel_available
from repro.engine._count_kernel import count_kernel_available
from repro.engine.base import check_period, drive_checks
from repro.engine.convergence import SingleLeader
from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.protocols.gs18 import GS18LeaderElection

N = 512
SEED = 7
#: The seed whose run uses the count-space case's table first.
WARM_SEED = 1234
#: Enough to converge at n = 512 (both protocols elect by ~1000).
MAX_PARALLEL_TIME = 3000

PROTOCOLS = {
    "gsu19": GSULeaderElection.for_population,
    "gs18": GS18LeaderElection.for_population,
}

ENGINES = {
    "sequential": (SequentialEngine, {}),
    "fastbatch-c": (FastBatchEngine, {"kernel": "c"}),
    "fastbatch-numpy": (FastBatchEngine, {"kernel": "numpy"}),
}


def _lazy(protocol):
    """``protocol`` with its closure hidden, so every table of it is laid
    out lazily and compiles one miss at a time."""
    protocol.state_closure = lambda: None
    return protocol


def _layout(table) -> list:
    return table.encoder.states()


def _checked_run(protocol, engine_cls, engine_kwargs, seed) -> tuple:
    """One run to the protocol's convergence predicate, as ``Simulation``
    drives it, with every check's verdict and leader count recorded."""
    engine = engine_cls(protocol, N, rng=seed, **engine_kwargs)
    # GSU19 brings its own predicate; GS18 is judged by the default one.
    predicate = getattr(protocol, "convergence", SingleLeader)()
    series = []

    def check(engine) -> bool:
        verdict = predicate(engine)
        series.append((engine.interactions, verdict, engine.leader_count()))
        return verdict

    budget = int(round(MAX_PARALLEL_TIME * N))
    converged = drive_checks(engine, check, budget, check_period(None, N))
    return engine.table, (
        converged,
        engine.interactions,
        engine.state_counts(),
        engine.states_ever_occupied,
        engine.leader_count(),
        series,
    )


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_warm_table_reproduces_fresh_run(protocol_name, engine_name):
    """The run on the warm closure table equals the run on a fresh lazily
    compiled table."""
    engine_cls, engine_kwargs = ENGINES[engine_name]
    if engine_kwargs.get("kernel") == "c" and not kernel_available():
        pytest.skip("C kernel unavailable")
    assert engine_cls.layout_free
    factory = PROTOCOLS[protocol_name]

    lazy_table, fresh = _checked_run(_lazy(factory(N)), engine_cls, engine_kwargs, SEED)
    closure_table, warm = _checked_run(factory(N), engine_cls, engine_kwargs, SEED)

    # The pin means something only if the layouts really differ: the
    # closure table is the BFS's layout and LUT, never grown or written,
    # and the lazy table's ids are not a prefix of it.
    states, lut = factory(N).state_closure()
    assert closure_table.packed.base is lut
    assert _layout(closure_table) == list(states)
    assert _layout(closure_table)[: len(lazy_table)] != _layout(lazy_table)
    assert lazy_table.compiled_pairs > 0
    assert fresh[0], "the lazy-table run should converge within the budget"
    assert warm == fresh


@pytest.mark.parametrize("kernel", ["c", "python"])
@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_count_space_run_is_independent_of_earlier_runs(protocol_name, kernel):
    """CountBatchEngine draws the same trajectory from a seed on a fresh
    table and on the table another seed's run used first: the table is the
    closure, laid out before any run, so no run's discovery order reaches
    the state ids the engine samples by."""
    if kernel == "c" and not count_kernel_available():
        pytest.skip("count kernel unavailable")
    assert not CountBatchEngine.layout_free
    factory = PROTOCOLS[protocol_name]
    # A smaller population keeps the Python mirror quick.
    n = N if kernel == "c" else 128
    budget = 200 * n
    runs = []
    for warm_first in (False, True):
        protocol = factory(n)
        if warm_first:
            CountBatchEngine(protocol, n, rng=WARM_SEED, kernel=kernel).run(budget)
        engine = CountBatchEngine(protocol, n, rng=SEED, kernel=kernel)
        engine.run(budget)
        assert engine.table is protocol.compile()
        assert engine.table.canonical_count == len(factory(n).state_closure()[0])
        runs.append(
            (engine.interactions, engine.state_counts(), engine.states_ever_occupied)
        )
    assert runs[0] == runs[1]
