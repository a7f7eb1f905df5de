"""State-id layout invariance: what lets per-agent runs start on the closure.

A layout-free engine (:attr:`repro.engine.base.BaseEngine.layout_free`: the
sequential and fast-batch engines) starts an idealised-world run on the
protocol's closure table — every reachable state registered in BFS order
and every pair compiled from the closure's LUT — instead of a table that
discovers states lazily in this run's order.  These pins show that the
per-agent engines do not notice: a run on the warm closure table
reproduces the run on a fresh lazily compiled table exactly, in
interactions, final counts, ``states_used``, leader count and the series
of convergence checks.  The counter-case pins why the count-space engines
keep the lazily discovered layout below the closure gate: they sample by
state-id order, so a different layout changes their trajectory.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import GSULeaderElection
from repro.engine._ckernel import kernel_available
from repro.engine.base import check_period, drive_checks
from repro.engine.convergence import SingleLeader
from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.protocols.gs18 import GS18LeaderElection

N = 512
SEED = 7
#: The seed whose run warms the count-space counter-case's table first.
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
    """``protocol`` with its closure hidden, so every engine compiles it
    lazily, one miss at a time."""
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


def test_count_space_engine_is_layout_dependent():
    """CountBatchEngine on lazily discovered GS18 changes its trajectory
    on a table whose layout another seed's run laid out, so count-space
    runs never start on the closure table unless the protocol declares it
    as its canonical states."""
    assert not CountBatchEngine.layout_free
    assert GS18LeaderElection.for_population(N).canonical_states() is None

    _, fresh = _checked_run(GS18LeaderElection.for_population(N), CountBatchEngine, {}, SEED)
    warm_protocol = GS18LeaderElection.for_population(N)
    _checked_run(warm_protocol, CountBatchEngine, {}, WARM_SEED)
    _, warm = _checked_run(warm_protocol, CountBatchEngine, {}, SEED)
    assert warm[:3] != fresh[:3]
