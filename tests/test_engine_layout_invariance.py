"""State-id layout invariance: what lets a sweep share one transition table.

The sweep scheduler runs same-``(protocol, n, engine)`` cells of a
table-shareable engine (:func:`repro.engine.dispatch.table_shareable`) on
one protocol instance, so a later seed starts on a table whose state ids
were laid out by an earlier seed's discovery order.  These pins show that
the per-agent engines do not notice: a run on a table pre-warmed by a
different seed reproduces the fresh run's interactions, final counts,
``states_used``, leader count and convergence-check series exactly.  The
counter-case pins why the count-space engines are excluded: they sample by
state-id order, so the same warm start changes their trajectory.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import GSULeaderElection
from repro.engine._ckernel import kernel_available
from repro.engine.base import cadence_for, drive_checks, run_checks
from repro.engine.convergence import SingleLeader
from repro.engine.count_batch import CountBatchEngine
from repro.engine.dispatch import table_shareable
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.protocols.gs18 import GS18LeaderElection

N = 512
SEED = 7
#: The seed whose run warms the shared table first.
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


def _layout(protocol) -> list:
    encoder = protocol.compile().encoder
    return [encoder.decode(sid) for sid in range(len(encoder))]


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
    (converged,) = run_checks(
        [drive_checks(engine, check, budget, cadence_for(None, N))],
        lambda chunks: engine.run(chunks[0]),
    )
    return (
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
    engine_cls, engine_kwargs = ENGINES[engine_name]
    if engine_kwargs.get("kernel") == "c" and not kernel_available():
        pytest.skip("C kernel unavailable")
    assert table_shareable(engine_cls)
    factory = PROTOCOLS[protocol_name]

    fresh_protocol = factory(N)
    fresh = _checked_run(fresh_protocol, engine_cls, engine_kwargs, SEED)

    warm_protocol = factory(N)
    _checked_run(warm_protocol, engine_cls, engine_kwargs, WARM_SEED)
    warm_pairs = warm_protocol.compile().compiled_pairs
    warm = _checked_run(warm_protocol, engine_cls, engine_kwargs, SEED)

    # The pin means something only if the warm start really changed the
    # layout: the fresh table's ids are not a prefix of the shared one's.
    fresh_layout = _layout(fresh_protocol)
    assert _layout(warm_protocol)[: len(fresh_layout)] != fresh_layout
    assert warm_pairs > 0
    assert fresh[0], "the fresh run should converge within the budget"
    assert warm == fresh


def test_count_space_engine_is_layout_dependent():
    """CountBatchEngine on lazily discovered GS18 changes its trajectory
    on a warm table, so the scheduler never shares one across its cells."""
    assert not table_shareable(CountBatchEngine)
    assert GS18LeaderElection.for_population(N).canonical_states() is None

    fresh = _checked_run(GS18LeaderElection.for_population(N), CountBatchEngine, {}, SEED)
    warm_protocol = GS18LeaderElection.for_population(N)
    _checked_run(warm_protocol, CountBatchEngine, {}, WARM_SEED)
    warm = _checked_run(warm_protocol, CountBatchEngine, {}, SEED)
    assert warm[:3] != fresh[:3]
