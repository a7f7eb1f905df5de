"""Seed-stability pins: per-(protocol, engine) trajectory digests.

Each exact engine's trajectory is a pure function of ``(protocol, n, seed,
driver call pattern)``.  These tests hash a short checkpointed trajectory
for every (protocol, engine) cell and compare against pinned digests, so a
refactor that silently changes randomness *consumption* — reordering draws,
adding an extra uniform, changing a block size — fails loudly here even when
it is distributionally invisible to the KS suite.

The pinned values are platform-stable: NumPy's PCG64 stream is specified,
state objects hash through ``repr``, and the fast-batch engine's digests are
identical with and without the C kernel (bit-for-bit guarantee, verified at
pin time by generating them both ways).  ``sequential``, ``fastbatch`` and
``fastbatch-numpy`` share one digest per protocol by design — the
identical-trajectory guarantee in its strongest observable form.  The
count-batch engine draws one xoshiro256++ stream through two
implementations of its kernel, the C one and its Python mirror, so its one
pin set (``KERNEL_EXPECTED``) holds for both: this module runs it on the
Python one, ``test_engine_count_kernel`` on the C one.

If an INTENTIONAL randomness-consumption change lands (e.g. a different
sampling scheme), regenerate the pins with
``python tests/test_engine_trajectory_digests.py`` and say so in the commit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.engine._count_kernel import count_kernel_available
from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.exact_majority import ExactMajority
from repro.protocols.gs18 import GS18LeaderElection
from repro.protocols.lottery import LotteryLeaderElection
from repro.protocols.slow import SlowLeaderElection

_SEED = 20190622
_CHUNKS = 3

needs_count_kernel = pytest.mark.skipif(
    not count_kernel_available(),
    reason="count kernel unavailable (no C compiler, or REPRO_NO_C_KERNEL=1)",
)

#: protocol name -> (factory, n).  Fresh protocol per run: identifier layout
#: of lazily discovered states (and hence count-engine trajectories) depends
#: on the shared table's compilation history.  GSU19 and GS18 tables are
#: laid out over their reachable closures, so their identifiers come from
#: the deterministic BFS order.  "gsu19-closure" pins a count-batch-scale
#: n_hint at a tiny calibration (Γ = 4, the BFS is sub-second).
PROTOCOLS = {
    "epidemic": (lambda: OneWayEpidemic(), 256),
    "exact-majority": (lambda: ExactMajority.for_population(200), 200),
    "gs18": (lambda: GS18LeaderElection.for_population(128), 128),
    "gsu19": (lambda: GSULeaderElection.for_population(256), 256),
    "gsu19-closure": (
        lambda: GSULeaderElection(GSUParams(n_hint=10**8, gamma=4, phi=1, psi=1)),
        256,
    ),
    "lottery": (lambda: LotteryLeaderElection.for_population(128), 128),
    "majority": (lambda: ApproximateMajority(initial_a_fraction=0.7), 200),
    "slow-le": (lambda: SlowLeaderElection(), 64),
}


def _fastbatch_numpy(protocol, n, rng=None):
    return FastBatchEngine(protocol, n, rng, kernel="numpy")


def _countbatch_python(protocol, n, rng=None):
    # The Python implementation of the count kernel needs no compiler; the
    # C one draws the same stream and is pinned in test_engine_count_kernel.
    return CountBatchEngine(protocol, n, rng, kernel="python")


ENGINES = {
    "sequential": SequentialEngine,
    "countbatch": _countbatch_python,
    "fastbatch": FastBatchEngine,
    "fastbatch-numpy": _fastbatch_numpy,
}

#: The pins.  sequential == fastbatch == fastbatch-numpy per protocol is the
#: bit-for-bit identical-trajectory guarantee, not an accident.  The
#: "gsu19-closure" pins coincide with "gsu19" on every engine because the
#: digest window (6 parallel-time units) ends before any clock phase reaches
#: 2, where the two calibrations first diverge; on the count engine, both
#: closures also order the window's occupied states alike.
EXPECTED = {
    "epidemic/fastbatch": "50e15d297a022ae2ba80dcebc2458a2f43042c1ae0272f0f484ad275c0804551",
    "epidemic/fastbatch-numpy": "50e15d297a022ae2ba80dcebc2458a2f43042c1ae0272f0f484ad275c0804551",
    "epidemic/sequential": "50e15d297a022ae2ba80dcebc2458a2f43042c1ae0272f0f484ad275c0804551",
    "exact-majority/fastbatch": "9cc08013e4b7faeee7c4f05f8c2302b497cf50b8806a501408022f1d7d466c3d",
    "exact-majority/fastbatch-numpy": "9cc08013e4b7faeee7c4f05f8c2302b497cf50b8806a501408022f1d7d466c3d",
    "exact-majority/sequential": "9cc08013e4b7faeee7c4f05f8c2302b497cf50b8806a501408022f1d7d466c3d",
    "gs18/fastbatch": "9001b8e8337897125703bf6ee947504536c77ca5960a676fd541d80e7c791104",
    "gs18/fastbatch-numpy": "9001b8e8337897125703bf6ee947504536c77ca5960a676fd541d80e7c791104",
    "gs18/sequential": "9001b8e8337897125703bf6ee947504536c77ca5960a676fd541d80e7c791104",
    "gsu19/fastbatch": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19/fastbatch-numpy": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19/sequential": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19-closure/fastbatch": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19-closure/fastbatch-numpy": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19-closure/sequential": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "lottery/fastbatch": "bd676f22242065138191e300af88edf716b552bc8f6581f3bda49af97f9551c7",
    "lottery/fastbatch-numpy": "bd676f22242065138191e300af88edf716b552bc8f6581f3bda49af97f9551c7",
    "lottery/sequential": "bd676f22242065138191e300af88edf716b552bc8f6581f3bda49af97f9551c7",
    "majority/fastbatch": "e8e45fccc8f1907bf08aa37c1fe41f0cfb383b90f5525fcdf86a75af7a3e832e",
    "majority/fastbatch-numpy": "e8e45fccc8f1907bf08aa37c1fe41f0cfb383b90f5525fcdf86a75af7a3e832e",
    "majority/sequential": "e8e45fccc8f1907bf08aa37c1fe41f0cfb383b90f5525fcdf86a75af7a3e832e",
    "slow-le/fastbatch": "8307ba47134c14665ac938db3c24b798f1626dbfdcb84a893c531a0b4bcb137d",
    "slow-le/fastbatch-numpy": "8307ba47134c14665ac938db3c24b798f1626dbfdcb84a893c531a0b4bcb137d",
    "slow-le/sequential": "8307ba47134c14665ac938db3c24b798f1626dbfdcb84a893c531a0b4bcb137d",
}

#: The count-batch engine's pins, on either implementation of its kernel.
KERNEL_EXPECTED = {
    "epidemic": "cfe4b2111715f3463291b6eda385bd52e1dc119f15870d6466a0ac049d6da103",
    "exact-majority": "5ad40632c0e9c73dae1642b77d35c71bff8a1181156c193ad2fcc94bb7d93557",
    "gs18": "7e3ab051d4e1dca48c74076fc906aad2e812d447bfaee8b6997c77c7123a56dd",
    "gsu19": "4a0906be4c5b7d5f25ab73b895e5f7298d482f0311f836eff7d6c271ae7ce1dc",
    "gsu19-closure": "4a0906be4c5b7d5f25ab73b895e5f7298d482f0311f836eff7d6c271ae7ce1dc",
    "lottery": "a5bf5e0ba6f2ca94a1bf9c325349088fb8e2dbeb9e63adb79e3ab1ad2c40807e",
    "majority": "de851ab22c2fdf2253bf48daec6ab62ef7a86f221dea6cbcb9d03f069777236f",
    "slow-le": "929c5c4741abc892fe5133fcddbfaa7f47af0fc942d091e933bed2416a5ff9f8",
}


def expected_digest(protocol_name: str, engine_name: str) -> str:
    """The pinned digest of an ``ENGINES`` cell."""
    if engine_name == "countbatch":
        return KERNEL_EXPECTED[protocol_name]
    return EXPECTED[f"{protocol_name}/{engine_name}"]


#: Driver pins: ``Simulation.run`` end to end, so the *driver's* call
#: pattern is pinned too — which chunk lengths it issues, where it checks,
#: where it writes checkpoints.  (The engine pins above call
#: ``engine.run`` directly.)  Each pin records the interactions, a digest
#: of the final counts, the recorded check series and the convergence
#: verdict, and the number of checkpoints written.  The budgets end on a
#: deadline-clipped chunk, so the "no checkpoint at a clipped check" rule
#: is pinned as well.
DRIVER_PROTOCOLS = {
    # (protocol key in PROTOCOLS, max_parallel_time)
    "gsu19": ("gsu19", 30.3),
    "slow-le": ("slow-le", 400.3),
}
DRIVER_ENGINES = {
    "countbatch": ("countbatch", {"kernel": "python"}),
    "fastbatch": ("fastbatch", {}),
}
DRIVER_CADENCES = {"fixed": 97}

DRIVER_EXPECTED = {
    "gsu19/countbatch/fixed": (7757, "5bc0163f3352fb5c98efcfaf024ae23897b09a9c23c2c8426e24dd0bad7c7c93", "543ac2242a42a5f8da1ed2f9e4c9cafdfc747736bd1024442de90f159ceb31a4", 26),
    "gsu19/fastbatch/fixed": (7757, "32795a3f6d2d9706adc05ecd82c809604e7aeca997c95dfbb7ce3bad88d17ff8", "4c9c4a956b203a4f9a79d6ef957f32de73896bd1686abeddad21b65b0b0d9c1e", 26),
    "slow-le/countbatch/fixed": (3395, "e492227fa71e45e8aaa4a26bdc0718e03ca2e36a0695619c9ba661e2c060b395", "bdb65a27a402c7c6610a03cda7c5d64e0e3c47ab1b0753ada3449a794db96c96", 35),
    "slow-le/fastbatch/fixed": (2619, "e492227fa71e45e8aaa4a26bdc0718e03ca2e36a0695619c9ba661e2c060b395", "464269f8581fa5fd94e66a5ca1a548ffdc894ed6d91a4d9a60a24865b54d4f04", 27),
}

#: Sweep-cell pins: four seeds of one ``run_cells`` call on the count-space
#: engine, one (converged, interactions, final-counts digest) per cell.
#: They pin the sweep, not the count stream, and hold on both
#: implementations of the count kernel.  Both budgets end on a clipped
#: chunk; slow-le's splits the cells between converged and
#: budget-exhausted.
MEGA_SEEDS = (11, 12, 13, 14)
MEGA_CASES = {
    # protocol key in PROTOCOLS -> max_parallel_time
    "gsu19": 30.3,
    "slow-le": 60.3,
}

MEGA_EXPECTED = {
    "gsu19/fixed": [
        (False, 7757, "d82ddc6e5d2e254d4e62a5473917c7d620a0af85cd1b3e014be9976afb54f3b5"),
        (False, 7757, "f2b80ed1ff5bc82cbf4b7301cd99a141d665d01eb5fbfd91f4630910de462212"),
        (False, 7757, "2b979b96d70f3a7836e44849c55b93e13819744c9631a6164fa3e178ed873924"),
        (False, 7757, "fcb97ada62c622066163f25d7b910269d01a1e90199d492a024f9a1bd5406158"),
    ],
    "slow-le/fixed": [
        (False, 3859, "403bb780795fd5daf01d5d4cc54696f3a89b40927eea776556e9f165f5046fa3"),
        (True, 3492, "e492227fa71e45e8aaa4a26bdc0718e03ca2e36a0695619c9ba661e2c060b395"),
        (False, 3859, "403bb780795fd5daf01d5d4cc54696f3a89b40927eea776556e9f165f5046fa3"),
        (True, 2813, "e492227fa71e45e8aaa4a26bdc0718e03ca2e36a0695619c9ba661e2c060b395"),
    ],
}


def _counts_digest(counts) -> str:
    ordered = sorted((repr(state), count) for state, count in counts.items())
    return hashlib.sha256(repr(ordered).encode()).hexdigest()


def driver_pin(protocol_name, engine_name, cadence, checkpoint_path, **kwargs) -> tuple:
    """``(interactions, final-counts digest, checks digest, checkpoints)``;
    ``kwargs`` override the engine's keywords."""
    from repro.engine.recorder import OutputCountRecorder
    from repro.engine.simulation import Simulation

    key, max_parallel_time = DRIVER_PROTOCOLS[protocol_name]
    factory, n = PROTOCOLS[key]
    engine_spec, engine_kwargs = DRIVER_ENGINES[engine_name]
    engine_kwargs = {**engine_kwargs, **kwargs}
    recorder = OutputCountRecorder()
    simulation = Simulation(
        factory(),
        n,
        rng=_SEED,
        engine_cls=engine_spec,
        engine_kwargs=engine_kwargs,
        recorders=[recorder],
        check_every=DRIVER_CADENCES[cadence],
        checkpoint_every=n,
        checkpoint_path=checkpoint_path,
    )
    written = []
    write = simulation.write_checkpoint
    simulation.write_checkpoint = lambda: written.append(write())
    result = simulation.run(max_parallel_time=max_parallel_time)
    checks = [
        (time, sorted(counts.items()))
        for time, counts in zip(recorder.times, recorder.counts)
    ]
    checks_repr = repr((result.converged, checks)).encode()
    return (
        result.interactions,
        _counts_digest(result.final_counts),
        hashlib.sha256(checks_repr).hexdigest(),
        len(written),
    )


def mega_pins(protocol_name, cadence, kernel="python") -> list:
    """Per-cell ``(converged, interactions, final-counts digest)`` of one
    ``run_cells`` sweep on the count kernel's ``kernel`` implementation."""
    from repro.engine.parallel import run_cells

    factory, n = PROTOCOLS[protocol_name]
    points = run_cells(
        lambda size: factory(),
        n,
        list(MEGA_SEEDS),
        max_parallel_time=MEGA_CASES[protocol_name],
        engine="countbatch",
        engine_kwargs={"kernel": kernel},
        check_every=DRIVER_CADENCES[cadence],
    )
    return [
        (
            point.result.converged,
            point.result.interactions,
            _counts_digest(point.result.final_counts),
        )
        for point in points
    ]


def trajectory_digest(engine_factory, protocol_factory, n) -> str:
    """SHA-256 over checkpointed (interactions, counts, space-usage) tuples.

    The chunk length ``2n + 3`` is deliberately ragged so that engines whose
    batching could quantise interaction counts would be caught too.
    """
    engine = engine_factory(protocol_factory(), n, rng=_SEED)
    digest = hashlib.sha256()
    for _ in range(_CHUNKS):
        engine.run(2 * n + 3)
        counts = sorted((repr(s), c) for s, c in engine.state_counts().items())
        digest.update(
            repr((engine.interactions, counts, engine.states_ever_occupied)).encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_trajectory_digest_is_pinned(protocol_name, engine_name):
    factory, n = PROTOCOLS[protocol_name]
    observed = trajectory_digest(ENGINES[engine_name], factory, n)
    expected = expected_digest(protocol_name, engine_name)
    assert observed == expected, (
        f"{engine_name} changed its randomness consumption on "
        f"{protocol_name}: digest {observed} != pinned {expected}. If the "
        "change is intentional, regenerate the pins (see module docstring)."
    )


@pytest.mark.parametrize("cadence", sorted(DRIVER_CADENCES))
@pytest.mark.parametrize("engine_name", sorted(DRIVER_ENGINES))
@pytest.mark.parametrize("protocol_name", sorted(DRIVER_PROTOCOLS))
def test_driver_call_pattern_is_pinned(tmp_path, protocol_name, engine_name, cadence):
    observed = driver_pin(protocol_name, engine_name, cadence, tmp_path / "run.ckpt")
    expected = DRIVER_EXPECTED[f"{protocol_name}/{engine_name}/{cadence}"]
    assert observed == expected, (
        f"Simulation.run changed its chunk, check or checkpoint sequence for "
        f"{engine_name} on {protocol_name} at the {cadence} cadence: "
        f"{observed} != pinned {expected}"
    )


@pytest.mark.parametrize("cadence", sorted(DRIVER_CADENCES))
@pytest.mark.parametrize("protocol_name", sorted(MEGA_CASES))
def test_mega_cell_rows_are_pinned(protocol_name, cadence):
    observed = mega_pins(protocol_name, cadence)
    assert observed == MEGA_EXPECTED[f"{protocol_name}/{cadence}"]


@needs_count_kernel
@pytest.mark.parametrize("cadence", sorted(DRIVER_CADENCES))
@pytest.mark.parametrize("protocol_name", sorted(DRIVER_PROTOCOLS))
def test_count_driver_and_sweep_pins_hold_on_the_c_kernel(
    tmp_path, protocol_name, cadence
):
    """The countbatch driver and sweep pins above run on the Python
    implementation of the count kernel; the C one must give the same."""
    observed = driver_pin(
        protocol_name, "countbatch", cadence, tmp_path / "run.ckpt", kernel="c"
    )
    assert observed == DRIVER_EXPECTED[f"{protocol_name}/countbatch/{cadence}"]
    observed = mega_pins(protocol_name, cadence, kernel="c")
    assert observed == MEGA_EXPECTED[f"{protocol_name}/{cadence}"]


def test_fastbatch_pins_equal_sequential_pins():
    """Keep the strongest guarantee visible: the three bit-for-bit engines
    share one pin per protocol."""
    for protocol_name in PROTOCOLS:
        assert (
            EXPECTED[f"{protocol_name}/fastbatch"]
            == EXPECTED[f"{protocol_name}/fastbatch-numpy"]
            == EXPECTED[f"{protocol_name}/sequential"]
        )


if __name__ == "__main__":  # pragma: no cover - pin regeneration helper
    for protocol_name, (factory, n) in sorted(PROTOCOLS.items()):
        for engine_name, engine_factory in sorted(ENGINES.items()):
            value = trajectory_digest(engine_factory, factory, n)
            key = f"{protocol_name}/{engine_name}"
            if engine_name == "countbatch":  # a KERNEL_EXPECTED entry
                key = protocol_name
            print(f'    "{key}": "{value}",')
    import tempfile
    from pathlib import Path

    print("# driver:")
    with tempfile.TemporaryDirectory() as directory:
        for protocol_name in sorted(DRIVER_PROTOCOLS):
            for engine_name in sorted(DRIVER_ENGINES):
                for cadence in sorted(DRIVER_CADENCES):
                    path = Path(directory) / "run.ckpt"
                    value = driver_pin(protocol_name, engine_name, cadence, path)
                    print(f'    "{protocol_name}/{engine_name}/{cadence}": {value!r},')
    print("# sweep cells:")
    for protocol_name in sorted(MEGA_CASES):
        for cadence in sorted(DRIVER_CADENCES):
            value = mega_pins(protocol_name, cadence)
            print(f'    "{protocol_name}/{cadence}": {value!r},')
