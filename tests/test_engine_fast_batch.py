"""Tests for the exact collision-aware batched engine and the auto-dispatcher.

The engine's central guarantee — exactness — is pinned down at its strongest
form: :class:`FastBatchEngine` consumes the shared randomness stream exactly
as :class:`SequentialEngine`'s ``pair_block`` calls do — through those calls
on the NumPy path, and through the C kernel's own draw from the same bit
generator for ``n < 2**32`` — so the two
engines must produce *identical* trajectories for identical seeds, not
merely equal distributions.  The kernel's draw is checked against
``PairSampler.pair_block`` directly (equal pairs, equal generator state
afterwards).  The scheduling helpers (conflict columns, wave depths) are
tested directly against brute-force reference implementations.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_engine_layout_invariance import _lazy

from repro.core.protocol import GSULeaderElection
from repro.engine import (
    ENGINE_NAMES,
    ENGINE_REGISTRY,
    auto_engine,
    resolve_engine,
    run_protocol,
)
from repro.engine._ckernel import FastBlock, load_kernel
from repro.engine.count_batch import CountBatchEngine
from repro.engine.dispatch import _FASTBATCH_MIN_N
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import (
    FastBatchEngine,
    conflict_columns,
    wave_depths,
)
from repro.engine.scheduler import PAIR_CHUNK, PairSampler
from repro.errors import ConfigurationError
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.lottery import LotteryLeaderElection


# ----------------------------------------------------------------------
# Scheduling helpers
# ----------------------------------------------------------------------
def _reference_conflicts(responders, initiators):
    """Brute-force previous-occurrence computation."""
    last_seen = {}
    conflict_r, conflict_i = [], []
    for t, (a, b) in enumerate(zip(responders, initiators)):
        conflict_r.append(last_seen.get(a, -1))
        conflict_i.append(last_seen.get(b, -1))
        last_seen[a] = t
        last_seen[b] = t
    return conflict_r, conflict_i


@pytest.mark.parametrize("n,m,seed", [(4, 50, 0), (16, 200, 1), (1000, 500, 2)])
def test_conflict_columns_match_bruteforce(n, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=m, dtype=np.int64)
    b = (a + 1 + rng.integers(0, n - 1, size=m, dtype=np.int64)) % n  # b != a
    conflict_r, conflict_i = conflict_columns(a, b)
    ref_r, ref_i = _reference_conflicts(a.tolist(), b.tolist())
    assert conflict_r.tolist() == ref_r
    assert conflict_i.tolist() == ref_i


def test_conflict_columns_empty_block():
    empty = np.empty(0, dtype=np.int64)
    conflict_r, conflict_i = conflict_columns(empty, empty)
    assert conflict_r.size == 0 and conflict_i.size == 0


@pytest.mark.parametrize("n,m,seed", [(6, 120, 6), (64, 400, 7), (5000, 600, 8)])
def test_wave_depths_schedule_is_exact(n, m, seed):
    """Waves partition the block; equal-depth interactions never share an
    agent; every predecessor sits in a strictly earlier wave."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=m, dtype=np.int64)
    b = (a + 1 + rng.integers(0, n - 1, size=m, dtype=np.int64)) % n
    conflict_r, conflict_i = conflict_columns(a, b)
    depth = wave_depths(conflict_r, conflict_i, max_waves=m + 1)
    assert depth is not None and depth.shape == (m,)
    for t in range(m):
        for pred in (conflict_r[t], conflict_i[t]):
            if pred >= 0:
                assert depth[pred] < depth[t]
        if conflict_r[t] < 0 and conflict_i[t] < 0:
            assert depth[t] == 0
    for wave in range(int(depth.max()) + 1):
        members = np.flatnonzero(depth == wave)
        ids = np.concatenate([a[members], b[members]])
        assert np.unique(ids).size == ids.size


def test_wave_depths_respects_cap():
    # A single agent chained through every interaction: depth grows by 1 each
    # step, so a cap below the block length must report failure.
    m = 20
    a = np.zeros(m, dtype=np.int64)
    b = np.arange(1, m + 1, dtype=np.int64)
    conflict_r, conflict_i = conflict_columns(a, b)
    assert wave_depths(conflict_r, conflict_i, max_waves=5) is None
    depth = wave_depths(conflict_r, conflict_i, max_waves=m + 1)
    assert depth is not None
    assert depth.tolist() == list(range(m))


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
def test_constructor_validation():
    protocol = OneWayEpidemic()
    with pytest.raises(ConfigurationError):
        FastBatchEngine(protocol, 1)
    with pytest.raises(ConfigurationError):
        FastBatchEngine(protocol, 16, kernel="fortran")


def test_kernel_c_raises_when_unavailable(monkeypatch):
    monkeypatch.setattr("repro.engine.fast_batch.load_kernel", lambda: None)
    with pytest.raises(ConfigurationError):
        FastBatchEngine(OneWayEpidemic(), 16, kernel="c")
    # "auto" silently falls back to the NumPy wave schedule.
    engine = FastBatchEngine(OneWayEpidemic(), 16, kernel="auto")
    assert engine._c_kernel is None


@pytest.mark.parametrize("kernel", ["auto", "numpy"])
@pytest.mark.parametrize("n", [2, 3, 8, 64, 1024])
def test_identical_trajectories_to_sequential_engine(n, kernel):
    """Same seed, same driver calls => bit-for-bit identical trajectories.

    This covers every engine code path: n=8 and n=64 exercise the NumPy
    path's scalar fallback (deep dependency chains), n=1024 its wave
    schedule, and kernel="auto" the C kernel where one compiles, drawing
    the pairs itself (n=2 and n=3 redraw colliding pairs in most chunks).
    """
    reference = SequentialEngine(OneWayEpidemic(), n, rng=17)
    batched = FastBatchEngine(OneWayEpidemic(), n, rng=17, kernel=kernel)
    if batched._kernel_args is not None:
        assert batched._kernel_args.bitgen
    for _ in range(4):
        reference.run(3 * n + 5)
        batched.run(3 * n + 5)
        assert reference.state_counts() == batched.state_counts()
    assert reference.population_snapshot() == batched.population_snapshot()
    assert reference.states_ever_occupied == batched.states_ever_occupied


@pytest.mark.parametrize("kernel", ["auto", "numpy"])
def test_identical_trajectories_on_gsu_protocol(kernel):
    n = 512
    reference = SequentialEngine(GSULeaderElection.for_population(n), n, rng=5)
    batched = FastBatchEngine(GSULeaderElection.for_population(n), n, rng=5, kernel=kernel)
    for _ in range(3):
        reference.run(8 * n)
        batched.run(8 * n)
        assert reference.state_counts() == batched.state_counts()
    assert reference.states_ever_occupied == batched.states_ever_occupied


def test_population_is_conserved_and_counts_non_negative():
    n = 300
    engine = FastBatchEngine(ApproximateMajority(initial_a_fraction=0.6), n, rng=2)
    for _ in range(5):
        engine.run(1000)
        counts = engine.state_counts()
        assert all(count > 0 for count in counts.values())
        assert sum(counts.values()) == n


def test_interaction_accounting_and_parallel_time():
    n = 100
    engine = FastBatchEngine(OneWayEpidemic(), n, rng=0)
    engine.step()
    assert engine.interactions == 1
    engine.run(n - 1)
    assert engine.interactions == n
    assert engine.parallel_time == pytest.approx(1.0)


def test_run_until_convergence_epidemic():
    n = 256
    engine = FastBatchEngine(OneWayEpidemic(), n, rng=11)
    converged = engine.run_until(
        lambda eng: OneWayEpidemic.fully_informed(eng.state_counts()),
        max_interactions=200 * n,
    )
    assert converged
    assert engine.state_counts() == {"informed": n}


@pytest.mark.parametrize("kernel", ["auto", "numpy"])
def test_lut_growth_beyond_initial_capacity(kernel):
    # The GSU protocol for n=1024 uses well over the initial 64-state table.
    n = 1024
    engine = FastBatchEngine(GSULeaderElection.for_population(n), n, rng=1, kernel=kernel)
    engine.run(40 * n)
    assert engine.states_ever_occupied > 64
    assert engine.table.capacity >= engine.states_ever_occupied
    assert sum(count for _, count in engine.state_count_items()) == n


def test_agent_level_inspection_helpers():
    n = 32
    engine = FastBatchEngine(OneWayEpidemic(sources=4), n, rng=3)
    snapshot = engine.population_snapshot()
    assert len(snapshot) == n
    assert snapshot.count("informed") == 4
    assert engine.agent_state(0) == snapshot[0]
    assert len(engine.agent_state_ids()) == n


def test_run_protocol_accepts_engine_names_and_auto():
    protocol = ApproximateMajority(initial_a_fraction=0.7)
    by_name = run_protocol(
        protocol, 128, seed=4, max_parallel_time=50.0, engine_cls="fastbatch"
    )
    by_class = run_protocol(
        protocol, 128, seed=4, max_parallel_time=50.0, engine_cls=FastBatchEngine
    )
    assert by_name.final_counts == by_class.final_counts
    auto = run_protocol(
        ApproximateMajority(initial_a_fraction=0.7),
        128,
        seed=4,
        max_parallel_time=50.0,
        engine_cls="auto",
    )
    # auto resolves to the sequential engine at this size; same stream, same
    # trajectory as the fastbatch run above.
    assert auto.final_counts == by_name.final_counts


# ----------------------------------------------------------------------
# The kernel's pair draw
# ----------------------------------------------------------------------
def _kernel_draw(generator: np.random.Generator, n: int, count: int):
    """One chunk drawn by the C kernel alone (``states`` NULL: no apply)."""
    responders, initiators, redraw = (np.empty(count, dtype=np.int64) for _ in range(3))
    bit_generator = generator.bit_generator
    args = FastBlock(
        responders=responders.ctypes.data,
        initiators=initiators.ctypes.data,
        redraw=redraw.ctypes.data,
        bitgen=bit_generator.ctypes.bit_generator.value,
        n=n,
        block=count,
        remaining=count,
    )
    with bit_generator.lock:
        assert load_kernel()(ctypes.addressof(args)) == 0
    assert (args.chunk, args.position, args.remaining) == (count, 0, count)
    return responders, initiators


@pytest.mark.skipif(load_kernel() is None, reason="no C kernel in this environment")
@given(
    n=st.sampled_from([2, 3, 2**31 + 11, 2**32 - 1]) | st.integers(2, 2**32 - 1),
    count=st.integers(1, PAIR_CHUNK),
    seed=st.integers(0, 2**64 - 1),
    bit_generator=st.sampled_from([np.random.PCG64, np.random.MT19937]),
    offset=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_kernel_draw_matches_pair_block(n, count, seed, bit_generator, offset):
    """The kernel draws a chunk word for word as ``PairSampler.pair_block``
    does (responders, initiators, collision redraws), through the generic
    ``bitgen_t`` of any bit generator, and leaves the generator exactly
    where NumPy leaves it: equal state (PCG64's buffered half-word
    included, which ``offset`` exercises) and an equal next draw."""
    ours = np.random.Generator(bit_generator(seed))
    theirs = np.random.Generator(bit_generator(seed))
    if offset:  # start on a buffered 32-bit half-word
        ours.integers(0, 5)
        theirs.integers(0, 5)
    responders, initiators = _kernel_draw(ours, n, count)
    expected_r, expected_i = PairSampler(n, theirs).pair_block(count)
    np.testing.assert_array_equal(responders, expected_r)
    np.testing.assert_array_equal(initiators, expected_i)
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
    assert ours.random() == theirs.random()


# ----------------------------------------------------------------------
# The live count vector
# ----------------------------------------------------------------------
#: Protocols with their closure hidden, so their fresh tables compile
#: lazily and runs miss the LUT.
_LAZY_PROTOCOLS = {
    "lottery": lambda n: _lazy(LotteryLeaderElection.for_population(n)),
    "majority": lambda n: _lazy(ApproximateMajority(initial_a_fraction=0.6)),
}


#: Engine variants under test: the fast-batch kernel paths and the
#: sequential engine, whose scalar loop keeps a list copy of the ledger.
_LEDGER_ENGINES = {
    "sequential": (SequentialEngine, {}),
    "numpy": (FastBatchEngine, {"kernel": "numpy"}),
}
if load_kernel() is not None:
    _LEDGER_ENGINES["c"] = (FastBatchEngine, {"kernel": "c"})


def _assert_ledger_matches_agents(engine) -> None:
    expected = np.bincount(engine.agent_state_ids(), minlength=len(engine.encoder))
    np.testing.assert_array_equal(engine.count_vector(), expected)
    assert engine._seen[np.flatnonzero(expected)].all()


@given(
    protocol=st.sampled_from(sorted(_LAZY_PROTOCOLS)),
    n=st.integers(3, 400),
    variant=st.sampled_from(sorted(_LEDGER_ENGINES)),
    chunks=st.lists(st.integers(1, 6_000), min_size=1, max_size=4),
    cut=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_live_counts_match_the_agents(protocol, n, variant, chunks, cut, seed):
    """The ledger every stepping path maintains matches the agent array
    after every run: the count vector equals its bincount and every
    occupied state is marked seen.  Covers the C kernel drawing its own
    pairs, the NumPy wave schedule and its scalar fallback (deep chains at
    small n), the sequential engine's loop, LUT misses, and snapshot ->
    restore (at ``cut``) into a fresh engine."""
    factory = _LAZY_PROTOCOLS[protocol]
    engine_cls, kwargs = _LEDGER_ENGINES[variant]
    engine = engine_cls(factory(n), n, rng=seed, **kwargs)
    for index, chunk in enumerate(chunks):
        if index == cut:
            engine = engine_cls.from_snapshot(factory(n), engine.snapshot(), **kwargs)
            _assert_ledger_matches_agents(engine)
        engine.run(chunk)
        _assert_ledger_matches_agents(engine)
    assert engine.table.compiled_pairs > 0


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
def test_auto_engine_policy_without_c_kernel(monkeypatch):
    monkeypatch.setattr("repro.engine.dispatch.kernel_available", lambda: False)
    epidemic = OneWayEpidemic()
    assert auto_engine(epidemic, 1024) is SequentialEngine
    assert auto_engine(epidemic, _FASTBATCH_MIN_N) is FastBatchEngine
    # The countbatch crossover is deliberately kernel-independent so that
    # seed-pinned auto results agree across machines: below it every choice
    # is in the bit-for-bit sequential-identical family.
    assert auto_engine(epidemic, 10**6) is FastBatchEngine
    assert auto_engine(epidemic, 10**7) is CountBatchEngine
    assert auto_engine(epidemic, 1 << 28) is CountBatchEngine
    # GSU19 declares its closure whatever n its parameters were derived
    # for, so one calibrated for a small n is count-capable, and run at a
    # size past the force threshold it count-dispatches.
    small_gsu = GSULeaderElection.for_population(4096)
    assert auto_engine(small_gsu, 1 << 28) is CountBatchEngine


def test_auto_engine_policy_with_c_kernel(monkeypatch):
    monkeypatch.setattr("repro.engine.dispatch.kernel_available", lambda: True)
    epidemic = OneWayEpidemic()
    # The compiled kernel wins from a few hundred agents upward.
    assert auto_engine(epidemic, 64) is SequentialEngine
    assert auto_engine(epidemic, 1024) is FastBatchEngine
    assert auto_engine(epidemic, 10**6) is FastBatchEngine
    # ... until the per-agent array falls out of cache while count-batch
    # keeps shrinking per-interaction work like 1/sqrt(n).
    assert auto_engine(epidemic, 10**7) is CountBatchEngine
    assert auto_engine(epidemic, 1 << 28) is CountBatchEngine


def test_auto_engine_cost_model_discriminates_by_state_count(monkeypatch):
    """The occupied-frontier cost model replaces the old flat 64-state cap:
    a 4-state protocol crosses over later than a 2-state one, and above the
    force threshold count-capability alone decides (per-agent construction
    is the binding constraint there, not throughput).  The model is
    count-kernel-aware, so both tiers are pinned explicitly here: on the
    Python tier a 4-state protocol stays on fastbatch at 3e6; with the
    compiled count kernel its per-batch cost collapses and the same
    protocol dispatches straight to count-batch.  The reference is the C
    fast-batch rate, so the fast-batch kernel is pinned present too (the
    compiler-less choices have their own test)."""
    from repro.engine import dispatch
    from repro.engine.dispatch import COUNTBATCH_FORCE_N, count_capable
    from repro.protocols.exact_majority import ExactMajority

    monkeypatch.setattr(dispatch, "kernel_available", lambda: True)

    # Python tier: 4 states cost ~3x the epidemic's per batch, pushing the
    # modelled crossover past the force threshold, while the 2-state
    # epidemic crosses below 10^7.
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: False)
    majority = ExactMajority.for_population(3 * 10**6)
    assert count_capable(majority, 3 * 10**6) == 4
    assert auto_engine(majority, 3 * 10**6) is FastBatchEngine
    big_majority = ExactMajority.for_population(10**7)
    assert auto_engine(big_majority, 10**7) is FastBatchEngine
    assert auto_engine(OneWayEpidemic(), 10**7) is CountBatchEngine
    forced_majority = ExactMajority.for_population(COUNTBATCH_FORCE_N)
    assert auto_engine(forced_majority, COUNTBATCH_FORCE_N) is CountBatchEngine
    # Kernel tier: the compiled count kernel's per-batch cost at 4 occupied
    # states is negligible, so the same 3e6 instance goes to count-batch.
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: True)
    assert auto_engine(majority, 3 * 10**6) is CountBatchEngine
    # GS18 declares initial_counts and its closure (2,114 states at this
    # calibration, within the budget): forced onto count space on either
    # tier.
    from repro.protocols.gs18 import GS18LeaderElection

    gs18 = GS18LeaderElection.for_population(COUNTBATCH_FORCE_N)
    assert count_capable(gs18, COUNTBATCH_FORCE_N) == 2114
    assert auto_engine(gs18, COUNTBATCH_FORCE_N) is CountBatchEngine
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: False)
    assert auto_engine(gs18, COUNTBATCH_FORCE_N) is CountBatchEngine


#: ``auto``'s choice for ``for_population(n)`` GSU19, GS18, lottery and the
#: standalone junta at n = 10^3, 10^5, 3*10^6, 10^7, 3*10^7 - 1, 3*10^7 and
#: 10^8, with both kernels compiled and with neither ("s" sequential, "f"
#: fastbatch, "c" countbatch).  The closures of GSU19 (1,348-1,789
#: states), GS18 (1,555-2,114) and lottery (105-275) price a batch onto
#: fastbatch until the force threshold; the junta's 4-6 states cross the
#: cost model below it.
_PAPER_PROTOCOL_CHOICES = {
    ("gsu19", True): "fffffcc",
    ("gs18", True): "fffffcc",
    ("lottery", True): "fffffcc",
    ("junta", True): "ffccccc",
    ("gsu19", False): "sffffcc",
    ("gs18", False): "sffffcc",
    ("lottery", False): "sffffcc",
    ("junta", False): "sfffccc",
}


@pytest.mark.parametrize("compiled", [True, False], ids=["kernels", "no-kernels"])
@pytest.mark.parametrize("protocol_name", ["gsu19", "gs18", "lottery", "junta"])
def test_auto_choices_for_the_paper_protocols(monkeypatch, protocol_name, compiled):
    from repro.engine import dispatch
    from repro.protocols.gs18 import GS18LeaderElection
    from repro.protocols.junta_standalone import JuntaElection
    from repro.protocols.lottery import LotteryLeaderElection

    monkeypatch.setattr(dispatch, "kernel_available", lambda: compiled)
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: compiled)
    cls = {
        "gsu19": GSULeaderElection,
        "gs18": GS18LeaderElection,
        "lottery": LotteryLeaderElection,
        "junta": JuntaElection,
    }[protocol_name]
    sizes = (10**3, 10**5, 3 * 10**6, 10**7, 3 * 10**7 - 1, 3 * 10**7, 10**8)
    letters = {SequentialEngine: "s", FastBatchEngine: "f", CountBatchEngine: "c"}
    observed = "".join(
        letters[auto_engine(cls.for_population(n), n)] for n in sizes
    )
    assert observed == _PAPER_PROTOCOL_CHOICES[protocol_name, compiled]


class _DeclaredStates(OneWayEpidemic):
    """A count-capable protocol declaring a closure of ``k`` states.
    Dispatch reads only the closure's length, so no LUT is built."""

    def __init__(self, k: int) -> None:
        super().__init__()
        self._k = k

    def state_closure(self):
        return range(self._k), None


#: ``auto``'s choice with both kernels compiled, per declared state count,
#: at n = 10^6, 3*10^6, 10^7, 2*10^7 and 3*10^7 ("c" countbatch, "f"
#: fastbatch), as recorded when the count engine still had a separate NumPy
#: stream: the compiled tier's cost model is unchanged.
_KERNEL_MACHINE_CHOICES = {
    2: "fcccc", 4: "fcccc", 16: "fcccc", 18: "fcccc", 19: "ffccc",
    24: "ffccc", 29: "fffcc", 30: "ffffc", 32: "ffffc", 1789: "ffffc",
}


def test_auto_choices_on_a_kernel_machine_are_unchanged(monkeypatch):
    from repro.engine import dispatch

    monkeypatch.setattr(dispatch, "kernel_available", lambda: True)
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: True)
    sizes = (10**6, 3 * 10**6, 10**7, 2 * 10**7, 3 * 10**7)
    for states, expected in _KERNEL_MACHINE_CHOICES.items():
        protocol = _DeclaredStates(states)
        observed = "".join(
            "c" if auto_engine(protocol, n) is CountBatchEngine else "f"
            for n in sizes
        )
        assert observed == expected, states


#: ``auto``'s choice with neither kernel compiled, per declared state count,
#: at n = 10^6, 3*10^6, 5*10^6, 10^7, 2*10^7, 3*10^7 and 10^8.  The count
#: kernel's Python mirror is priced against the NumPy fast-batch rate, the
#: fast-batch path that runs without a compiler.
_COMPILER_LESS_CHOICES = {
    2: "fcccccc", 3: "fcccccc", 4: "fffcccc", 8: "fffffcc", 1789: "fffffcc",
}


def test_auto_choices_without_a_compiler_price_numpy_fastbatch(monkeypatch):
    from repro.engine import dispatch

    monkeypatch.setattr(dispatch, "kernel_available", lambda: False)
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: False)
    sizes = (10**6, 3 * 10**6, 5 * 10**6, 10**7, 2 * 10**7, 3 * 10**7, 10**8)
    for states, expected in _COMPILER_LESS_CHOICES.items():
        protocol = _DeclaredStates(states)
        observed = "".join(
            "c" if auto_engine(protocol, n) is CountBatchEngine else "f"
            for n in sizes
        )
        assert observed == expected, states


def test_auto_engine_dispatches_closure_registered_gsu19(monkeypatch):
    """A count-batch-scale GSU19 instance declares its reachable closure and
    is force-dispatched to the configuration-space engine at sizes where
    per-agent arrays stop being viable.  A small calibration keeps the
    closure BFS fast; the default calibration is covered in the slow suite
    (test_engine_closure.py)."""
    from repro.core.params import GSUParams
    from repro.engine import dispatch
    from repro.engine.dispatch import COUNTBATCH_FORCE_N, count_capable

    protocol = GSULeaderElection(
        GSUParams(n_hint=COUNTBATCH_FORCE_N, gamma=4, phi=1, psi=1)
    )
    states = count_capable(protocol, COUNTBATCH_FORCE_N)
    assert states is not None and states > 64  # beyond the old flat cap
    assert auto_engine(protocol, COUNTBATCH_FORCE_N) is CountBatchEngine
    # Below the force threshold the measured cost model prices a batch at
    # the declared closure (144 states), which loses to the fast-batch C
    # kernel on either count-batch tier.
    for kernel in (False, True):
        monkeypatch.setattr(dispatch, "count_kernel_available", lambda: kernel)
        assert auto_engine(protocol, 10**7) is FastBatchEngine


def test_resolve_engine_accepts_names_classes_and_none():
    epidemic = OneWayEpidemic()
    assert resolve_engine(None) is SequentialEngine
    assert resolve_engine("sequential") is SequentialEngine
    assert resolve_engine("FASTBATCH") is FastBatchEngine
    assert resolve_engine("countbatch") is CountBatchEngine
    assert resolve_engine(CountBatchEngine) is CountBatchEngine
    assert resolve_engine("auto", epidemic, 64) is SequentialEngine
    with pytest.raises(ConfigurationError):
        resolve_engine("auto")  # needs protocol and n
    with pytest.raises(ConfigurationError):
        resolve_engine("warp-drive")
    with pytest.raises(ConfigurationError):
        resolve_engine(42)


@pytest.mark.parametrize(
    "retired,replacement", [("count", "countbatch"), ("batch", "fastbatch")]
)
def test_retired_engine_names_suggest_their_replacement(retired, replacement):
    """The retired ``count`` and ``batch`` engines are gone from the
    registry; asking for them names the closest surviving engine."""
    assert retired not in ENGINE_NAMES
    with pytest.raises(ConfigurationError, match=f"did you mean '{replacement}'"):
        resolve_engine(retired)


def test_unknown_engine_error_enumerates_names_and_suggests():
    """A typo like 'countbach' must name every valid engine and offer a
    did-you-mean hint."""
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_engine("countbach")
    message = str(excinfo.value)
    for name in ENGINE_NAMES:
        assert f"'{name}'" in message
    assert "did you mean 'countbatch'?" in message


@pytest.mark.parametrize("name", ["zeppelin", "tauleap", "meanfield"])
def test_unknown_engine_error_without_a_close_match(name):
    """A name with no close match (the retired approximate engines
    ``tauleap`` and ``meanfield`` among them) is refused outright: no hint,
    no fallback to another engine."""
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_engine(name)
    message = str(excinfo.value)
    assert f"unknown engine '{name}'" in message
    assert "did you mean" not in message
    for valid in ENGINE_NAMES:
        assert f"'{valid}'" in message


def test_kernel_cache_dir_resolution(monkeypatch, tmp_path):
    """Kernel artifacts build into a user cache directory, never the source
    tree: explicit override first, then XDG, then ~/.cache."""
    from pathlib import Path

    import repro
    from repro.engine._ckernel import kernel_cache_dir

    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "explicit"))
    assert kernel_cache_dir() == tmp_path / "explicit"
    monkeypatch.delenv("REPRO_KERNEL_CACHE")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert kernel_cache_dir() == tmp_path / "xdg" / "repro" / "kernels"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert kernel_cache_dir() == Path.home() / ".cache" / "repro" / "kernels"
    # Whatever it resolves to, it must sit outside the package tree.
    package_root = Path(repro.__file__).resolve().parent
    assert package_root not in kernel_cache_dir().resolve().parents


def test_kernel_builds_disable_fp_contraction(monkeypatch, tmp_path):
    """Every kernel compiles with ``-ffp-contract=off``, and the flag enters
    the artifact digest: a cached library built without it is not reused."""
    import hashlib
    from pathlib import Path

    from repro.engine import _ckernel

    commands = []

    def compile_stub(command, **kwargs):
        commands.append(command)
        Path(command[command.index("-o") + 1]).write_bytes(b"")

    monkeypatch.setattr(_ckernel.subprocess, "run", compile_stub)
    monkeypatch.setattr(_ckernel.shutil, "which", lambda name: "cc")
    source = "int f(void) { return 0; }"
    # The artifact name an empty flag list hashes to.
    unflagged = hashlib.sha256((source + "\x00").encode()).hexdigest()[:16]
    (tmp_path / f"k_{unflagged}.so").write_bytes(b"")
    path = _ckernel.build_library(source, "k", cache_dir=tmp_path)
    assert path.name != f"k_{unflagged}.so"
    assert len(commands) == 1 and "-ffp-contract=off" in commands[0]


def test_registry_and_names_are_consistent():
    assert set(ENGINE_NAMES) == set(ENGINE_REGISTRY) | {"auto"}
    for name, engine_cls in ENGINE_REGISTRY.items():
        assert resolve_engine(name) is engine_cls
    assert all(
        auto_engine(OneWayEpidemic(), n) in ENGINE_REGISTRY.values()
        for n in (64, 10**4, 10**6, 1 << 28)
    )
