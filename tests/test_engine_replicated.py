"""Replica-vectorised count engine: row-wise bit-identity and throughput.

The replica dimension's contract is *bit-for-bit* equality: row ``r`` of a
:class:`~repro.engine.count_batch.ReplicatedCountBatchEngine` must produce
exactly the trajectory the scalar :class:`CountBatchEngine` produces when
run with that row's seed — same counts after every chunk, same interaction
counters, same RNG words, same snapshots.  These tests pin that equality
for every count-capable protocol in the digest matrix, on both the compiled
C kernel path and the portable Python path, and pin the throughput claim
the replica dimension exists for (32 GSU19 replicas >= 3x faster than 32
scalar runs at n = 10^6).
"""

from __future__ import annotations

import hashlib
import time

import pytest

from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.engine._count_kernel import count_kernel_available
from repro.engine.count_batch import (
    CountBatchEngine,
    ReplicatedCountBatchEngine,
    replicated_engine,
)
from repro.engine.rng import spawn_seeds
from repro.errors import ConfigurationError
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.exact_majority import ExactMajority
from repro.protocols.gs18 import GS18LeaderElection
from repro.protocols.lottery import LotteryLeaderElection
from repro.protocols.slow import SlowLeaderElection

_SEED = 20190622
_REPLICAS = 4
_CHUNKS = 3

#: Same (factory, n) matrix as the trajectory digest pins: all eight
#: count-capable protocols, covering complete state spaces (shared table
#: across rows) and lazily discovering ones (per-row private tables).
PROTOCOLS = {
    "epidemic": (lambda n: OneWayEpidemic(), 256),
    "exact-majority": (lambda n: ExactMajority.for_population(200), 200),
    "gs18": (lambda n: GS18LeaderElection.for_population(128), 128),
    "gsu19": (lambda n: GSULeaderElection.for_population(256), 256),
    "gsu19-closure": (
        lambda n: GSULeaderElection(GSUParams(n_hint=10**8, gamma=4, phi=1, psi=1)),
        256,
    ),
    "lottery": (lambda n: LotteryLeaderElection.for_population(128), 128),
    "majority": (lambda n: ApproximateMajority(initial_a_fraction=0.7), 200),
    "slow-le": (lambda n: SlowLeaderElection(), 64),
}

KERNELS = [
    pytest.param(
        "c",
        marks=pytest.mark.skipif(
            not count_kernel_available(), reason="compiled count kernel unavailable"
        ),
    ),
    "python",
]


def _digest(engine: CountBatchEngine) -> str:
    payload = repr(
        (
            engine.interactions,
            sorted(
                (repr(state), count) for state, count in engine.state_counts().items()
            ),
            engine.states_ever_occupied,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_replica_rows_bit_identical_to_scalar(name, kernel):
    factory, n = PROTOCOLS[name]
    seeds = spawn_seeds(_SEED, _REPLICAS)
    replicated = replicated_engine(factory, n, seeds, kernel=kernel)
    scalars = [
        CountBatchEngine(factory(n), n, rng=seed, kernel=kernel) for seed in seeds
    ]
    for _ in range(_CHUNKS):
        chunk = 2 * n + 3
        replicated.run(chunk)
        for scalar in scalars:
            scalar.run(chunk)
        for row, scalar in zip(replicated.rows, scalars):
            assert _digest(row) == _digest(scalar)
    # Stronger than the digest: full snapshots (counts, interaction
    # counters, PCG64 state, xoshiro kernel words, encoder layout) agree
    # byte-for-byte, so a checkpoint taken from a row resumes exactly like
    # one taken from the scalar run.
    for row, scalar in zip(replicated.rows, scalars):
        assert repr(row.snapshot()) == repr(scalar.snapshot())


def test_replicated_rows_converge_independently():
    # Zero-budget rows must not advance (or touch their RNG streams).  The
    # lazily discovering GS18 puts such a row next to rows whose encoders
    # (and with them counts, seen masks and LUTs) grow between calls.
    for name in ("epidemic", "gs18"):
        factory, n = PROTOCOLS[name]
        seeds = spawn_seeds(_SEED, 3)
        replicated = replicated_engine(factory, n, seeds)
        replicated.run_chunks([5 * n, 0, 5 * n])
        assert replicated.interactions == [5 * n, 0, 5 * n]
        scalar = CountBatchEngine(factory(n), n, rng=seeds[1])
        assert repr(replicated.rows[1].snapshot()) == repr(scalar.snapshot())
        replicated.run_chunks([0, 5 * n, 5 * n])
        for row, seed, chunks in zip(replicated.rows, seeds, ([1], [1], [1, 1])):
            scalar = CountBatchEngine(factory(n), n, rng=seed)
            for chunk in chunks:
                scalar.run(chunk * 5 * n)
            assert repr(row.snapshot()) == repr(scalar.snapshot()), (name, seed)


def test_replicated_validates_arguments():
    factory, n = PROTOCOLS["epidemic"]
    with pytest.raises(ConfigurationError):
        ReplicatedCountBatchEngine([], n, [])
    with pytest.raises(ConfigurationError):
        ReplicatedCountBatchEngine([factory(n)], n, [1, 2])
    replicated = replicated_engine(factory, n, [1, 2])
    with pytest.raises(ConfigurationError):
        replicated.run_chunks([1])
    with pytest.raises(ConfigurationError):
        replicated.run_chunks([1, -1])


def test_table_sharing_follows_state_space_completeness():
    # Complete state space -> one shared protocol instance and table;
    # lazily discovering protocols get per-row instances (seed-dependent
    # discovery order must not leak across rows).
    complete = replicated_engine(PROTOCOLS["epidemic"][0], 64, [1, 2, 3])
    assert len({id(row.protocol) for row in complete.rows}) == 1
    lazy = replicated_engine(PROTOCOLS["gs18"][0], 128, [1, 2, 3])
    assert len({id(row.protocol) for row in lazy.rows}) == 3


@pytest.mark.slow
@pytest.mark.skipif(
    not count_kernel_available(), reason="compiled count kernel unavailable"
)
def test_replica_throughput_beats_scalar_runs():
    """32-replica GSU19 kernel throughput >= 3x 32 scalar runs at n = 10^6.

    The workload is the closure calibration (the one count-batch actually
    runs at headline scale; k = 1789 states, a ~25 MB packed table per
    engine): a scalar sweep cell pays protocol construction, canonical
    state registration and table packing per run, while the replica engine
    pays them once for all 32 rows and hands the kernel one (32, k) count
    matrix per call.  Both legs are warmed first so the one-time closure
    BFS (cached per (gamma, phi, psi) across instances) prices neither
    side, and each leg is timed as the best of three trials — shared-host
    wall clocks here see multiplicative noise bursts that a single-shot
    measurement cannot ride out.
    """
    n = 10**6
    replicas = 32
    trials = 3

    def factory(size):
        return GSULeaderElection.for_population(5 * 10**7)

    seeds = spawn_seeds(777, replicas)
    # Warm: closure BFS + kernel build land outside the timed region.
    warm = CountBatchEngine(factory(n), n, rng=1, kernel="c")
    warm.run(n)

    def scalar_leg() -> float:
        started = time.perf_counter()
        for seed in seeds:
            engine = CountBatchEngine(factory(n), n, rng=seed, kernel="c")
            engine.run(n)
        return time.perf_counter() - started

    def replica_leg() -> float:
        started = time.perf_counter()
        replicated = replicated_engine(factory, n, seeds, kernel="c")
        replicated.run(n)
        return time.perf_counter() - started

    scalar_seconds = min(scalar_leg() for _ in range(trials))
    replica_seconds = min(replica_leg() for _ in range(trials))

    assert replica_seconds * 3 <= scalar_seconds, (
        f"replica sweep took {replica_seconds:.3f}s vs {scalar_seconds:.3f}s "
        f"for 32 scalar runs (ratio {scalar_seconds / replica_seconds:.2f}x, "
        "expected >= 3x)"
    )
