"""Tests for the reachable-state closure and GSU19's count-space support.

The closure pass (:mod:`repro.engine.closure`) is what makes the headline
GSU19 protocol *count-capable*: its ``state_closure`` plus the
``initial_counts`` hook lets ``engine="auto"`` dispatch it to the
configuration-space engines at ``n = 10^7``–``10^8``.  The BFS evaluates
the rules of GSU19 and GS18 once per phase-free pair, so even the default
calibrations (GSU19: 1,348 states at ``Γ=24, Φ=1, Ψ=3``, 1,789 at
``n = 10^8``'s ``Φ=2, Ψ=4``; GS18: 1,555 at ``Γ=24, Φ=4``) close in under a
second on a 2-CPU host.  Its exactness is pinned against a pair-by-pair
oracle at small calibrations (``gamma=4`` gives 144 GSU19 states,
``gamma=8, psi=3`` 444) and by digests of the three production closures,
both as the BFS builds them and as a later process loads them from the
persistent closure cache, whose unusable files are rebuilt by the BFS.
"""

from __future__ import annotations

import hashlib
import shutil
import tracemalloc

import numpy as np
import pytest

from repro.clocks import phase_clock
from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.core.state import deactivated_state, zero_state
from repro.engine import closure
from repro.engine._count_kernel import count_kernel_available
from repro.engine.closure import reachable_closure, reachable_states
from repro.engine.count_batch import CountBatchEngine
from repro.engine.dispatch import auto_engine, count_capable
from repro.engine.engine import SequentialEngine
from repro.engine.protocol import ProtocolSpec
from repro.engine.simulation import Simulation
from repro.engine.table import TransitionTable
from repro.errors import ProtocolError
from repro.protocols import junta_standalone, lottery
from repro.protocols.gs18 import GS18LeaderElection
from repro.protocols.junta_standalone import JuntaElection
from repro.protocols.lottery import LotteryLeaderElection
from repro.types import Role


#: A count-batch-scale population hint (the dynamics ignore it).
_N_HINT = 30_000_000


def _small_gsu(
    n_hint: int = _N_HINT, gamma: int = 4, psi: int = 1
) -> GSULeaderElection:
    """A count-batch-scale GSU19 instance with a fast, small closure."""
    return GSULeaderElection(GSUParams(n_hint=n_hint, gamma=gamma, phi=1, psi=psi))


class _OracleLutGSU(GSULeaderElection):
    """GSU19 whose closure is the pair-loop oracle's: the same id layout as
    the factored BFS's, its LUT built from one scalar transition per pair."""

    def state_closure(self):
        closure = self.__dict__.get("_oracle")
        if closure is None:
            closure = self._oracle = _pair_loop_closure(self.transition, [zero_state()])
        return closure


class _PhaseReadingGSU(GSULeaderElection):
    """Rules that read the phase, breaking the closure's factoring: an
    uninitialised responder at an odd phase deactivates."""

    def apply_rules(self, responder, initiator, qualifier):
        if responder.role == Role.ZERO and responder.phase % 2:
            return deactivated_state(responder.phase), initiator
        return super().apply_rules(responder, initiator, qualifier)


@pytest.fixture
def closure_dir(monkeypatch, tmp_path):
    """An empty closure directory and an empty in-process closure cache, so
    the next use of a calibration runs its BFS (the compiled kernels stay
    where they are)."""
    directory = tmp_path / "closures"
    monkeypatch.setattr(closure, "closure_cache_dir", lambda: directory)
    monkeypatch.setattr(closure, "_CLOSURE_CACHE", {})
    yield directory
    shutil.rmtree(directory, ignore_errors=True)  # up to 26 MB a file


@pytest.fixture
def bfs_runs(monkeypatch):
    """The closure BFSs run from here on, one entry each, whichever
    protocol declares the closure."""
    runs = []

    def counting(*args, **kwargs):
        runs.append(None)
        return reachable_closure(*args, **kwargs)

    for module in (phase_clock, lottery, junta_standalone):
        monkeypatch.setattr(module, "reachable_closure", counting)
    return runs


def _pair_loop_closure(transition, seeds):
    """The closure BFS pair by pair: one scalar transition call per ordered
    pair per layer, ids in first-occurrence order of each fresh state's
    forward then backward results.  The exactness oracle for the factored
    BFS."""
    ids = {}
    for seed in seeds:
        ids.setdefault(seed, len(ids))
    states = list(ids)
    results = {}
    lo, hi = 0, len(states)
    while lo < hi:
        for fresh in states[lo:hi]:
            for other in states[:hi]:
                for pair in ((fresh, other), (other, fresh)):
                    results[pair] = transition(*pair)
                    for state in results[pair]:
                        if state not in ids:
                            ids[state] = len(states)
                            states.append(state)
        lo, hi = hi, len(states)
    lut = np.array(
        [
            [(ids[results[r, i][0]] << 32) | ids[results[r, i][1]] for i in states]
            for r in states
        ],
        dtype=np.int64,
    )
    return states, lut


# ----------------------------------------------------------------------
# The generic BFS
# ----------------------------------------------------------------------
def test_reachable_states_enumerates_exact_closure():
    """Three-state cyclic chase: a+a -> b, b+b -> c, c+c -> a; from {a} the
    closure is exactly {a, b, c} in BFS discovery order."""
    cycle = {"a": "b", "b": "c", "c": "a"}

    def transition(responder, initiator):
        if responder == initiator:
            return cycle[responder], initiator
        return responder, initiator

    assert reachable_states(transition, ["a"]) == ["a", "b", "c"]


def test_reachable_states_only_reports_reachable():
    """States that exist in the protocol's alphabet but can never occur from
    the seeds stay out of the closure."""

    def transition(responder, initiator):
        # 'x' would map to 'y', but 'x' is never produced from 'a'.
        if responder == "x":
            return "y", initiator
        return responder, initiator

    assert reachable_states(transition, ["a"]) == ["a"]


def test_reachable_closure_lut_encodes_every_pair():
    """The BFS records every ordered pair it evaluates, in the packed
    layout, over the ids of its discovery order."""
    cycle = {"a": "b", "b": "c", "c": "a"}

    def transition(responder, initiator):
        if responder == initiator:
            return cycle[responder], initiator
        return initiator, responder

    states, lut = reachable_closure(transition, ["a"])
    assert states == ["a", "b", "c"] == reachable_states(transition, ["a"])
    assert lut.shape == (3, 3) and lut.dtype == np.int64
    assert not lut.flags.writeable
    for r, responder in enumerate(states):
        for i, initiator in enumerate(states):
            new_r, new_i = transition(responder, initiator)
            assert int(lut[r, i]) == (states.index(new_r) << 32) | states.index(new_i)


def test_reachable_states_requires_a_seed():
    with pytest.raises(ProtocolError):
        reachable_states(lambda r, i: (r, i), [])


def test_reachable_states_guards_against_unbounded_spaces():
    """A counter protocol grows states without bound; the cap must trip
    instead of looping forever."""

    def transition(responder, initiator):
        return responder + 1, initiator

    with pytest.raises(ProtocolError, match="exceeded 64 states"):
        reachable_states(transition, [0], max_states=64)


def test_reachable_states_guard_trips_before_a_layer_explodes():
    """Every pair yields a new state, so one BFS block meets far more new
    states than the cap: the guard must raise ProtocolError there, not
    allocate a memo for them (a (2000, 2000) int64 memo is 32 MB)."""

    def transition(responder, initiator):
        return responder * 100_003 + initiator + 1, initiator

    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="exceeded 2000 states"):
            reachable_states(transition, [0], max_states=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


# ----------------------------------------------------------------------
# The factored BFS is exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "protocol",
    [
        pytest.param(_small_gsu(gamma=gamma, psi=psi), id=f"{gamma}-{psi}")
        for gamma in (4, 6, 8)
        for psi in (1, 3)
    ]
    + [
        pytest.param(
            GS18LeaderElection(GSUParams(n_hint=4096, gamma=8, phi=2, psi=3)),
            id="gs18-8-2",
        )
    ],
)
def test_factored_closure_equals_pair_loop_oracle(protocol):
    """Same states in the same order, and the same LUT entry for entry, as
    evaluating the scalar transition on every ordered pair."""
    seed = protocol.initial_state(protocol.params.n_hint)
    states, lut = _pair_loop_closure(protocol.transition, [seed])
    assert list(protocol.reachable_state_closure()) == states
    assert np.array_equal(protocol.state_closure()[1], lut)


_PRODUCTION_CLOSURES = [
    (
        GSULeaderElection,
        1,
        3,
        1348,
        "d866ec4bc091a633efa4222cd56ee40bd8ebb51231ba3b7ecdd7849db7d2db1c",
        "6df01b1d65defd190d69ef19df749c704d7d596c6fa2673b50fbbe94d295a4aa",
    ),
    (
        GSULeaderElection,
        2,
        4,
        1789,
        "cd65f25f18bccf9f754c848dfcb052c7cbff0313734467cee7273d4777d63bbf",
        "63a6e78d0c827a493e408886c8385b674f039a2a378a6388128b484cd7adee0d",
    ),
    (
        GS18LeaderElection,
        4,
        3,
        1555,
        "e5905a2ed892d9a47a106968d0a8bb0d85a34d634ce84f9b8a462ab3e7de6f2b",
        "a432beb937ffcd50532c2289f5d3b8562cfa5cf284e1f405ae11dd75ea4367a9",
    ),
]


@pytest.mark.parametrize("path", ["bfs", "loaded"])
@pytest.mark.parametrize(
    "cls, phi, psi, size, states_sha, lut_sha",
    [
        pytest.param(
            *case,
            id=("gs18-" if case[0] is GS18LeaderElection else "")
            + "-".join(map(str, case[1:])),
        )
        for case in _PRODUCTION_CLOSURES
    ],
)
def test_production_closures_pinned(
    closure_dir, bfs_runs, cls, phi, psi, size, states_sha, lut_sha, path
):
    """The closures Table 1's per-agent runs (GSU19 at Φ=1 and GS18, Γ=24)
    and count-space runs (GSU19 at n = 10^8's Φ=2) start on, pinned by
    digests recorded from the pair-by-pair BFS: sha256 of the states'
    reprs, one per line, and of the LUT's bytes.  Both ways a process gets
    them: by its own BFS, and loaded from the closure file an earlier BFS
    wrote."""
    protocol = cls(GSUParams(n_hint=_N_HINT, gamma=24, phi=phi, psi=psi))
    states, lut = protocol.state_closure()
    if path == "loaded":
        closure._CLOSURE_CACHE.clear()
        states, lut = protocol.state_closure()
    assert len(bfs_runs) == 1 and len(list(closure_dir.iterdir())) == 1
    assert not lut.flags.writeable
    assert len(states) == size and lut.shape == (size, size)
    reprs = "\n".join(map(repr, states)).encode()
    assert hashlib.sha256(reprs).hexdigest() == states_sha
    assert hashlib.sha256(lut.tobytes()).hexdigest() == lut_sha


def test_phase_reading_rules_fail_the_spot_check(closure_dir):
    """Rules that read the phase break the factoring the BFS relies on; the
    spot check against the scalar transition raises, naming the pair.  A
    class defined outside the package is never cached on disk: the key
    cannot pin its source."""
    params = GSUParams(n_hint=_N_HINT, gamma=4, phi=1, psi=1)
    protocol = _PhaseReadingGSU(params)
    assert closure.closure_file(_PhaseReadingGSU, (4, 1, 1)) is None
    with pytest.raises(ProtocolError, match="disagrees with the transition at"):
        protocol.reachable_state_closure()
    assert not closure_dir.exists()


# ----------------------------------------------------------------------
# GSU19 closure semantics
# ----------------------------------------------------------------------
def test_gsu_closure_is_transition_closed_and_seeded():
    """Full closedness audit at the gamma=4 calibration: every ordered pair
    of closure states transitions back into the closure (144^2 pairs)."""
    protocol = _small_gsu()
    closure = set(protocol.reachable_state_closure())
    assert zero_state() in closure
    for responder in closure:
        for initiator in closure:
            updated, partner = protocol.transition(responder, initiator)
            assert updated in closure
            assert partner in closure


@pytest.mark.parametrize("n_hint", [64, 4096, 10**6, _N_HINT, 10**12])
def test_every_table_is_laid_out_over_the_closure(n_hint):
    """GSU19 declares its closure at every n_hint, and compile() lays the
    table out over it, LUT adopted, whatever the population the parameters
    were derived for."""
    protocol = _small_gsu(n_hint=n_hint)
    states, lut = protocol.state_closure()
    assert protocol.reachable_state_closure() == states
    assert len(states) == count_capable(protocol, n_hint) == 144
    table = protocol.compile()
    assert table.encoder.states() == list(states)
    assert table.canonical_count == len(table) == 144
    assert table.packed.base is lut


def test_gs18_table_is_laid_out_over_its_closure():
    """GS18 declares its closure as GSU19 does; compile() lays its table
    out over it too, and dispatch reads the same closure."""
    protocol = GS18LeaderElection.for_population(256)
    states, lut = protocol.state_closure()
    assert count_capable(protocol, 256) == len(states)
    table = protocol.compile()
    assert table.encoder.states() == list(states)
    assert table.canonical_count == len(states)
    assert table.packed.base is lut


#: Two instances of one calibration per protocol that declares a closure:
#: GSU19 at (gamma, phi, psi), lottery at max_ticket, the junta at phi.
_CALIBRATION_PAIRS = [
    (lambda: _small_gsu(n_hint=4096), lambda: _small_gsu(n_hint=10**8)),
    (lambda: LotteryLeaderElection.for_population(100), lambda: LotteryLeaderElection(14)),
    (lambda: JuntaElection(phi=2), lambda: JuntaElection(phi=2, coin_fraction=1.0)),
]


def _load_without_bfs(build, runs, states, lut):
    """A second process: its first use of the calibration must load the
    closure file, not run the BFS."""
    closure._CLOSURE_CACHE.clear()
    before = len(runs)
    loaded_states, loaded_lut = build().state_closure()
    same = loaded_states == states and loaded_lut.tobytes() == lut.tobytes()
    raise SystemExit(0 if same and len(runs) == before else 1)


def test_closure_cache_is_shared_per_calibration(closure_dir, bfs_runs):
    """Two instances of one calibration — whatever their n_hint, ticket
    formula or coin fraction — share one cached closure object, from one
    BFS and one file; every table of it adopts the closure's LUT; and a
    second process loads the file without a BFS.  For GSU19, lottery and
    the standalone junta alike."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    for count, (build_first, build_second) in enumerate(_CALIBRATION_PAIRS, 1):
        first, second = build_first(), build_second()
        states, lut = first.state_closure()
        assert second.state_closure()[0] is states
        assert len(bfs_runs) == count == len(list(closure_dir.glob("*.closure")))
        for protocol in (first, second):
            table = protocol.compile()
            assert table.packed.base is lut and table.compiled_pairs == 0
        process = context.Process(
            target=_load_without_bfs, args=(build_second, bfs_runs, states, lut)
        )
        process.start()
        process.join(timeout=60)
        assert process.exitcode == 0, type(first).__name__


# ----------------------------------------------------------------------
# The persistent closure cache
# ----------------------------------------------------------------------
def _flip_bit(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))


def _other_version(path):
    data = path.read_bytes()
    old = f"{closure.CLOSURE_MAGIC} {closure.CLOSURE_VERSION} ".encode()
    new = f"{closure.CLOSURE_MAGIC} {closure.CLOSURE_VERSION + 1} ".encode()
    assert data.startswith(old)
    path.write_bytes(new + data[len(old):])


def _stale_source(path):
    """The file an earlier source wrote (same calibration, same content,
    another key), found under the current name."""
    states, lut = closure._CLOSURE_CACHE[(GSULeaderElection, 8, 1, 3)]
    closure.ClosureFile(path, "0" * 64).save(states, lut)


def _crashed_writer(path):
    """Only a writer's temp file is left, holding half of the file."""
    data = path.read_bytes()
    path.unlink()
    (path.parent / f".{path.name}.999999.0123456789ab").write_bytes(data[: len(data) // 2])


_CORRUPTIONS = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-1]),
    "truncated-header": lambda path: path.write_bytes(path.read_bytes()[:40]),
    "bit-flipped": _flip_bit,
    "wrong-version": _other_version,
    "stale-source-digest": _stale_source,
    "crashed-writer": _crashed_writer,
}


@pytest.mark.parametrize("corrupt", list(_CORRUPTIONS.values()), ids=list(_CORRUPTIONS))
def test_unusable_closure_files_are_rebuilt_by_the_bfs(closure_dir, bfs_runs, corrupt):
    """A missing, truncated, bit-flipped, other-version or stale file is
    never trusted: the BFS runs again, its result equals the first BFS
    (states in order, LUT bytes), and it rewrites the file, which the next
    process loads."""
    protocol = _small_gsu(gamma=8, psi=3)
    states, lut = protocol.state_closure()
    (path,) = closure_dir.glob("*.closure")
    corrupt(path)
    closure._CLOSURE_CACHE.clear()
    rebuilt_states, rebuilt_lut = protocol.state_closure()
    assert len(bfs_runs) == 2
    assert rebuilt_states == states and rebuilt_lut.tobytes() == lut.tobytes()
    assert not rebuilt_lut.flags.writeable
    closure._CLOSURE_CACHE.clear()
    loaded_states, loaded_lut = protocol.state_closure()
    assert len(bfs_runs) == 2
    assert loaded_states == states and loaded_lut.tobytes() == lut.tobytes()
    assert not loaded_lut.flags.writeable


def test_one_closure_file_per_calibration(closure_dir, bfs_runs, monkeypatch):
    """Every source edit changes the key; a write removes the calibration's
    older files and leaves other calibrations' alone, so the cache holds
    one file per calibration."""
    _small_gsu(gamma=4, psi=1).reachable_state_closure()
    (other,) = closure_dir.glob("*.closure")
    names = []
    for source in ("a" * 64, "b" * 64):
        monkeypatch.setattr(closure, "source_digest", lambda source=source: source)
        closure._CLOSURE_CACHE.clear()
        _small_gsu(gamma=8, psi=3).reachable_state_closure()
        names.append(closure.closure_file(GSULeaderElection, (8, 1, 3)).path.name)
    assert len(bfs_runs) == 3 and names[0] != names[1]
    assert sorted(p.name for p in closure_dir.iterdir()) == sorted([other.name, names[1]])


def _save_and_load(stored, states, lut, rounds):
    """One writer of a shared closure file: every load between its own
    saves and the others' must see a whole file."""
    for _ in range(rounds):
        stored.save(states, lut)
        loaded = stored.load()
        if loaded is None or loaded[0] != states or loaded[1].tobytes() != lut.tobytes():
            raise SystemExit(1)


def test_concurrent_writers_leave_one_whole_file(closure_dir):
    """Sweep workers starting on a cold cache all write the same file:
    more writers than cores, saving and loading in a loop, never expose a
    partial file or remove the live one."""
    import multiprocessing

    states, lut = _small_gsu().state_closure()
    stored = closure.closure_file(GSULeaderElection, (4, 1, 1))
    context = multiprocessing.get_context("fork")
    writers = [
        context.Process(target=_save_and_load, args=(stored, states, lut, 25))
        for _ in range(4)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
        assert not writer.is_alive() and writer.exitcode == 0
    assert [path.name for path in closure_dir.iterdir()] == [stored.path.name]


def test_an_unwritable_closure_cache_only_costs_the_bfs(monkeypatch, tmp_path, bfs_runs):
    """A cache directory that cannot be created (here: a file is in the
    way) is skipped: the closure comes from the BFS, and no error
    surfaces."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_bytes(b"")
    monkeypatch.setattr(closure, "closure_cache_dir", lambda: blocker / "closures")
    monkeypatch.setattr(closure, "_CLOSURE_CACHE", {})
    assert len(_small_gsu().reachable_state_closure()) == 144
    assert len(bfs_runs) == 1


# ----------------------------------------------------------------------
# The closure's LUT, adopted by the transition table
# ----------------------------------------------------------------------
@pytest.mark.parametrize("gamma, psi, size", [(4, 1, 144), (8, 3, 444)])
def test_adopted_lut_equals_encoded_transitions(gamma, psi, size):
    """A closure-registered table starts fully compiled: its packed array
    is the BFS's LUT, and every entry is the encoded protocol transition."""
    protocol = _small_gsu(gamma=gamma, psi=psi)
    table = protocol.compile()
    closure, lut = protocol.state_closure()
    assert len(closure) == len(table) == table.capacity == size
    assert table.encoder.states() == list(closure)
    assert np.shares_memory(table.packed, lut)
    ids = {state: sid for sid, state in enumerate(closure)}
    transition = protocol.transition
    for r, responder in enumerate(closure):
        row = lut[r].tolist()
        for i, initiator in enumerate(closure):
            new_r, new_i = transition(responder, initiator)
            assert row[i] == (ids[new_r] << 32) | ids[new_i], (r, i)


def test_adopted_lut_is_shared_and_read_only():
    """Every table of a calibration shares one read-only LUT; serving a pair
    through apply() fills delta from it and leaves it unchanged."""
    first = _small_gsu().compile()
    second = _small_gsu(n_hint=10**9).compile()
    assert first is not second
    lut = _small_gsu().state_closure()[1]
    for table in (first, second):
        assert table.packed.base is lut
        assert not table.packed.flags.writeable
    with pytest.raises(ValueError):
        lut[0, 0] = 0
    entry = int(lut[3, 5])
    assert first.apply(3, 5) == (entry >> 32, entry & 0xFFFFFFFF)
    assert first.compiled_pairs == 1
    assert int(lut[3, 5]) == entry


def test_table_grows_past_an_adopted_lut():
    """A state outside the closure (a hand-built configuration) grows the
    table into a private writable array that keeps the closure's entries."""
    protocol = _small_gsu()
    table = TransitionTable(protocol)
    size = len(table)
    lut = protocol.state_closure()[1]
    outsider = zero_state().evolve(phase=protocol.params.gamma + 1)
    sid = table.encode(outsider)
    assert sid == size and table.capacity > size
    assert table.packed.flags.writeable
    grown = table.packed.reshape(table.capacity, table.capacity)
    assert np.array_equal(grown[:size, :size], lut)
    assert int(grown[sid, 0]) == -1


@pytest.mark.parametrize(
    "kernel",
    [
        pytest.param(
            "c",
            marks=pytest.mark.skipif(
                not count_kernel_available(), reason="count kernel unavailable"
            ),
        ),
        "python",
    ],
)
def test_closure_registered_count_run_never_misses(monkeypatch, kernel):
    """On the adopted LUT a count run compiles nothing: neither
    implementation of the count kernel enters TransitionTable.apply or
    evaluates a transition.  The run equals the same seed on a table with
    the same id layout whose LUT the pair-loop oracle built."""
    applies = []
    original_apply = TransitionTable.apply

    def counting_apply(self, responder_id, initiator_id):
        applies.append((responder_id, initiator_id))
        return original_apply(self, responder_id, initiator_id)

    monkeypatch.setattr(TransitionTable, "apply", counting_apply)
    # The Python implementation is slower; a smaller run keeps it quick.
    n = 10**5 if kernel == "c" else 4096
    budget, seed = 20 * n, 17
    snapshots = {}
    for name, cls in (("adopted", GSULeaderElection), ("oracle", _OracleLutGSU)):
        protocol = cls(GSUParams(n_hint=_N_HINT, gamma=4, phi=1, psi=1))
        table = protocol.compile()  # the closure BFS runs before counting starts
        assert table.compiled_pairs == 0
        evaluated = []

        def counting_transition(responder, initiator, transition=protocol.transition):
            evaluated.append(None)
            return transition(responder, initiator)

        protocol.transition = counting_transition
        del applies[:]
        engine = CountBatchEngine(protocol, n, rng=seed, kernel=kernel)
        engine.run(budget)
        assert engine.interactions == budget
        assert not evaluated and not applies
        snapshots[name] = repr(engine.snapshot())
    assert snapshots["adopted"] == snapshots["oracle"]


def test_gsu_initial_counts_declared():
    protocol = _small_gsu()
    assert protocol.initial_counts(10**8) == {zero_state(): 10**8}


# ----------------------------------------------------------------------
# Closure-registered engines stay exact
# ----------------------------------------------------------------------
def test_closure_registered_countbatch_matches_sequential_quantiles():
    """With the closure eagerly registered, state-identifier layout changes
    (BFS order instead of discovery order) — the count-batch convergence-time
    distribution must not.  Same quantile-profile pin as the cross-engine
    equivalence suite, on the closure-enabled calibration."""
    from repro.analysis.stats import quantile_profile_distance

    n = 64

    def sample(engine_cls, seeds):
        times = []
        for seed in seeds:
            engine = engine_cls(_small_gsu(), n, rng=seed)
            assert engine.run_until(
                lambda e: e.leader_count() == 1,
                max_interactions=4000 * n,
                check_every=n // 4,
            )
            times.append(float(engine.interactions))
        return times

    reference = sample(SequentialEngine, range(24))
    batched = sample(CountBatchEngine, range(100_000, 100_024))
    assert quantile_profile_distance(reference, batched) < 1.5


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "no-kernel"])
@pytest.mark.parametrize("n", [3_000_000, 10_000_000])
def test_auto_dispatch_keeps_closure_declaring_gsu_on_fastbatch(monkeypatch, n, kernel):
    """Below the force threshold the cost model, priced at GSU19's declared
    closure (1,789 states at n = 3*10^7's calibration), keeps it on
    fastbatch, with or without the compiled kernels."""
    from repro.engine import dispatch
    from repro.engine.fast_batch import FastBatchEngine

    monkeypatch.setattr(dispatch, "kernel_available", lambda: kernel)
    monkeypatch.setattr(dispatch, "count_kernel_available", lambda: kernel)
    protocol = GSULeaderElection(
        GSUParams.from_population_size(dispatch.COUNTBATCH_FORCE_N)
    )
    assert count_capable(protocol, n) == 1789
    assert auto_engine(protocol, n) is FastBatchEngine


def test_auto_simulation_on_closure_registered_gsu_uses_countbatch():
    """End-to-end through Simulation: a count-batch-scale GSU19 instance
    dispatches to the configuration-space engine and runs O(k) from
    initial_counts (no O(n) allocation — population 10^8 would not fit)."""
    n = 10**8
    simulation = Simulation(_small_gsu(n_hint=n), n, rng=5, engine_cls="auto")
    assert isinstance(simulation.engine, CountBatchEngine)
    simulation.engine.run(50_000)
    counts = simulation.engine.state_counts()
    assert sum(counts.values()) == n


# ----------------------------------------------------------------------
# The headline acceptance run
# ----------------------------------------------------------------------
def test_headline_auto_dispatch_at_default_calibration_1e8():
    """`run_protocol(GSULeaderElection.for_population(10**8), 10**8,
    engine="auto")` must dispatch to CountBatchEngine and simulate with peak
    memory independent of n (the packed table for the 1,789-state closure
    plus O(sqrt(n)) survival curve — tens of MB, not the >= 10 GB a
    per-agent engine would need)."""
    n = 10**8
    protocol = GSULeaderElection.for_population(n)
    assert auto_engine(protocol, n) is CountBatchEngine
    protocol.compile()  # shared per-protocol table, n-independent
    tracemalloc.start()
    simulation = Simulation(protocol, n, rng=1, engine_cls="auto")
    simulation.engine.run(100_000)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert isinstance(simulation.engine, CountBatchEngine)
    assert sum(count for _, count in simulation.engine.state_count_items()) == n
    assert peak < 256 * 2**20


# ----------------------------------------------------------------------
# ProtocolSpec's declared states
# ----------------------------------------------------------------------
def _spec(states, rules=lambda r, i: (r, i)):
    return ProtocolSpec(
        name="spec", initial="a", rules=rules, outputs=lambda s: "F", states=states
    )


def test_spec_closure_gains_the_reachable_states():
    """Declared states that are not closed gain what they reach, so the
    table is complete and count space accepts the spec; a lazy spec is
    refused."""
    spec = _spec(["a"], rules=lambda r, i: ("b", i) if r == i == "a" else (r, i))
    assert spec.state_closure()[0] == ("a", "b")
    table = spec.compile()
    assert len(table) == table.canonical_count == 2
    engine = CountBatchEngine(spec, 64, rng=3)
    engine.run(1_000)
    assert sum(engine.state_counts().values()) == 64
    lazy = _spec(None)
    assert lazy.state_closure() is None
    with pytest.raises(ProtocolError, match="declares no state closure"):
        CountBatchEngine(lazy, 64, rng=3)


def test_spec_closure_is_memoised_per_instance():
    """Each spec's closure is its own (its rules are its own), computed
    once per instance."""
    calls = []

    def rules(r, i):
        calls.append((r, i))
        return r, i

    first, second = _spec(["a", "b"], rules), _spec(["c"])
    closure = first.state_closure()
    evaluated = len(calls)
    assert first.state_closure() is closure
    assert len(calls) == evaluated
    assert second.state_closure()[0] == ("c",)


def test_spec_with_unbounded_states_fails_at_compile():
    """An unbounded declared state space fails when the table is built,
    with the BFS's error naming its cap.  Every pair makes two new states,
    so the cap trips inside one BFS block, on a small memo."""
    spec = _spec([()], rules=lambda r, i: ((r, i, 0), (r, i, 1)))
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="exceeded 100000 states"):
            spec.compile()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
