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
identical-trajectory guarantee in its strongest observable form.

If an INTENTIONAL randomness-consumption change lands (e.g. a different
sampling scheme), regenerate the pins with
``python tests/test_engine_trajectory_digests.py`` and say so in the commit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.engine.meanfield import MeanFieldEngine
from repro.engine.tauleap import TauLeapEngine
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.exact_majority import ExactMajority
from repro.protocols.gs18 import GS18LeaderElection
from repro.protocols.lottery import LotteryLeaderElection
from repro.protocols.slow import SlowLeaderElection

_SEED = 20190622
_CHUNKS = 3

#: protocol name -> (factory, n).  Fresh protocol per run: identifier layout
#: of lazily discovered states (and hence count-engine trajectories) depends
#: on the shared table's compilation history.  "gsu19-closure" pins the
#: closure-registered layout (count-batch-scale n_hint, tiny calibration so
#: the BFS is sub-second): identifiers come from the deterministic BFS
#: discovery order, making the count-engine rows machine-independent even
#: though the engine runs at a small n here.
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
    # The countbatch C kernel runs its own RNG stream (equal in
    # distribution, not bit-for-bit), so the shared pins record the
    # Python path; the kernel path has its own pin set in
    # test_engine_count_kernel.py, gated on kernel availability.
    return CountBatchEngine(protocol, n, rng, kernel="python")


ENGINES = {
    "sequential": SequentialEngine,
    "countbatch": _countbatch_python,
    "fastbatch": FastBatchEngine,
    "fastbatch-numpy": _fastbatch_numpy,
}

#: The pins.  sequential == fastbatch == fastbatch-numpy per protocol is the
#: bit-for-bit identical-trajectory guarantee, not an accident.  The
#: "gsu19-closure" sequential-family pins coincide with "gsu19" because the
#: digest window (6 parallel-time units) ends before any clock phase reaches
#: 2, where the two calibrations first diverge; the count-engine pins differ
#: because the closure-registered identifier layout (BFS order) replaces the
#: lazy discovery order.
EXPECTED = {
    "epidemic/countbatch": "b96cd061b46bc019f8761d17318c2463b1a71818c182047ac7455a7982c88082",
    "epidemic/fastbatch": "50e15d297a022ae2ba80dcebc2458a2f43042c1ae0272f0f484ad275c0804551",
    "epidemic/fastbatch-numpy": "50e15d297a022ae2ba80dcebc2458a2f43042c1ae0272f0f484ad275c0804551",
    "epidemic/sequential": "50e15d297a022ae2ba80dcebc2458a2f43042c1ae0272f0f484ad275c0804551",
    "exact-majority/countbatch": "2f29773af059bf46e8487480343a4ccfa7604aa40b91da8a4929e97a1c99d171",
    "exact-majority/fastbatch": "9cc08013e4b7faeee7c4f05f8c2302b497cf50b8806a501408022f1d7d466c3d",
    "exact-majority/fastbatch-numpy": "9cc08013e4b7faeee7c4f05f8c2302b497cf50b8806a501408022f1d7d466c3d",
    "exact-majority/sequential": "9cc08013e4b7faeee7c4f05f8c2302b497cf50b8806a501408022f1d7d466c3d",
    "gs18/countbatch": "8d6748a605700caffef178ca200d154af57e62cec7c7d90858a137862fe5f977",
    "gs18/fastbatch": "9001b8e8337897125703bf6ee947504536c77ca5960a676fd541d80e7c791104",
    "gs18/fastbatch-numpy": "9001b8e8337897125703bf6ee947504536c77ca5960a676fd541d80e7c791104",
    "gs18/sequential": "9001b8e8337897125703bf6ee947504536c77ca5960a676fd541d80e7c791104",
    "gsu19/countbatch": "0d4aed97e0cec4966664c74436d316162a7aa1616175ae5d161f4102bffd2770",
    "gsu19/fastbatch": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19/fastbatch-numpy": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19/sequential": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19-closure/countbatch": "80c1f878a63a4a11f162699bc21b86b5f2872e1caf5b224e1892870d4fb3f1fb",
    "gsu19-closure/fastbatch": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19-closure/fastbatch-numpy": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "gsu19-closure/sequential": "b2244c1533df79e8e4437f8c363793d5d3bcb005e9fcb523c68d34380a5cf84d",
    "lottery/countbatch": "18c9abb08d30566671f360e1542ffa430501587cdd6198efee8a430d9a5ff4b7",
    "lottery/fastbatch": "bd676f22242065138191e300af88edf716b552bc8f6581f3bda49af97f9551c7",
    "lottery/fastbatch-numpy": "bd676f22242065138191e300af88edf716b552bc8f6581f3bda49af97f9551c7",
    "lottery/sequential": "bd676f22242065138191e300af88edf716b552bc8f6581f3bda49af97f9551c7",
    "majority/countbatch": "13fb2bfec03a927ba86872884adfd445b50361fad7135799dd4a413363751aa8",
    "majority/fastbatch": "e8e45fccc8f1907bf08aa37c1fe41f0cfb383b90f5525fcdf86a75af7a3e832e",
    "majority/fastbatch-numpy": "e8e45fccc8f1907bf08aa37c1fe41f0cfb383b90f5525fcdf86a75af7a3e832e",
    "majority/sequential": "e8e45fccc8f1907bf08aa37c1fe41f0cfb383b90f5525fcdf86a75af7a3e832e",
    "slow-le/countbatch": "bc5df660226bed0c1b88dfbb60f3099cd635c9c7464d536476f95257bcc535cd",
    "slow-le/fastbatch": "8307ba47134c14665ac938db3c24b798f1626dbfdcb84a893c531a0b4bcb137d",
    "slow-le/fastbatch-numpy": "8307ba47134c14665ac938db3c24b798f1626dbfdcb84a893c531a0b4bcb137d",
    "slow-le/sequential": "8307ba47134c14665ac938db3c24b798f1626dbfdcb84a893c531a0b4bcb137d",
}


#: Approximate-tier determinism pins: one workload per engine (ISSUE 9).
#: These pin *seed-determinism*, not accuracy (that is
#: ``test_engine_approx.py``'s job): the tau-leap engine must replay the
#: same leaps for the same seed, and the mean-field engine — whose
#: trajectory is elementwise IEEE float arithmetic plus deterministic
#: largest-remainder rounding — must reproduce the same rounded counts.
APPROX_ENGINES = {
    "meanfield": MeanFieldEngine,
    "tauleap": TauLeapEngine,
}

#: (protocol, approx engine) cells pinned; keys index PROTOCOLS above.
APPROX_CASES = (
    ("epidemic", "tauleap"),
    ("exact-majority", "meanfield"),
)

APPROX_EXPECTED = {
    "epidemic/tauleap": "8f0df41d6af928d90fce133b3375b326ce0bda13efc3d4b5aba39842293949bf",
    "exact-majority/meanfield": "fb3a1938feeef4cfd793960366f8a6f098ae90f30997014aa45b509992563a3c",
}


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
DRIVER_CADENCES = {"fixed": 97, "auto": "auto"}

DRIVER_EXPECTED = {
    "gsu19/countbatch/auto": (7757, "1c22b087409a7fee479ebfddc3e00f09fce65592d7ffc89c37be9c8153289293", "da8dd7eedfc0810942130051de53913f92bf8b4edbd4503be1e5a1b7f202680a", 22),
    "gsu19/countbatch/fixed": (7757, "83848d5602a566a76c48c8baae92c6528d0a415542af9208b69a22865e31ab1a", "6b56ffac6ad0c55c7c68e41cb9a8ff12238b497df7bb5f1f3f3cfad024643a83", 26),
    "gsu19/fastbatch/auto": (7757, "327803398e265b58f218639181f06def73b9f1c925cd704e51bb9ae82790883f", "40a2fc1460964990c451cb3c8ea04d219a695628b18438d09d0cfaafeefc66ea", 24),
    "gsu19/fastbatch/fixed": (7757, "32795a3f6d2d9706adc05ecd82c809604e7aeca997c95dfbb7ce3bad88d17ff8", "4c9c4a956b203a4f9a79d6ef957f32de73896bd1686abeddad21b65b0b0d9c1e", 26),
    "slow-le/countbatch/auto": (1552, "e492227fa71e45e8aaa4a26bdc0718e03ca2e36a0695619c9ba661e2c060b395", "92cc2a7fc22665b5a1a153786961b6414701edda4cadc4dfd46c178e5d894278", 14),
    "slow-le/countbatch/fixed": (1455, "e492227fa71e45e8aaa4a26bdc0718e03ca2e36a0695619c9ba661e2c060b395", "fefb024280cf454db273a6d0cdb6e4a4d74e872472f977c0574b62123113969a", 15),
    "slow-le/fastbatch/auto": (4816, "e492227fa71e45e8aaa4a26bdc0718e03ca2e36a0695619c9ba661e2c060b395", "35f161ee2ad1564f6b303085646766e007de5da104bb9531fb37bea56a5e6a93", 29),
    "slow-le/fastbatch/fixed": (2619, "e492227fa71e45e8aaa4a26bdc0718e03ca2e36a0695619c9ba661e2c060b395", "464269f8581fa5fd94e66a5ca1a548ffdc894ed6d91a4d9a60a24865b54d4f04", 27),
}

#: Sweep-cell pins: four seeds of one ``run_cells`` call on the count-space
#: engine's Python path, one (converged, interactions, final-counts digest)
#: per cell.  Recorded when these seeds formed one replica-vectorised
#: mega-cell; they now run as one-cell units, so the unchanged values show
#: that retiring mega-cells changed no trajectory.  Both budgets end on a
#: clipped chunk; slow-le's splits the cells between converged and
#: budget-exhausted.
MEGA_SEEDS = (11, 12, 13, 14)
MEGA_CASES = {
    # protocol key in PROTOCOLS -> max_parallel_time
    "gsu19": 30.3,
    "slow-le": 60.3,
}

MEGA_EXPECTED = {
    "gsu19/auto": [
        (False, 7757, "88831795b96efc15b3e0796fb720470cf4aa36796dda94f7b87f124f0ee5ebf6"),
        (False, 7757, "8edd6fc07100511b0040073bb7f6f69ad093e2c4ac65ea3091ca0a2170374f6b"),
        (False, 7757, "2b669e4126d2aa41ee865d0f64b510897fe7761ed0aac24c5b1c4743e57ceb9e"),
        (False, 7757, "d8a34518ed50fba9529d2e9aec761ded727d838ce206a2530a8d152b59314109"),
    ],
    "gsu19/fixed": [
        (False, 7757, "b8c53efd06c9b7aed6ee2fb34bd46800b94c373a678748354fa81eb7c7a812fd"),
        (False, 7757, "80e6a4f52ab0cd80777551ea0b624e0f59abab052beefdb59966ff942e6d8b4e"),
        (False, 7757, "650b67f03cd9644277a897dce56508d34d2b7ffaf14213ddb2646f409c6862ad"),
        (False, 7757, "4186078a971ee1605f47552ce7d581516f58a951939b364b1ea8d83da7c2b40d"),
    ],
    "slow-le/auto": [
        (False, 3859, "403bb780795fd5daf01d5d4cc54696f3a89b40927eea776556e9f165f5046fa3"),
        (False, 3859, "403bb780795fd5daf01d5d4cc54696f3a89b40927eea776556e9f165f5046fa3"),
        (False, 3859, "403bb780795fd5daf01d5d4cc54696f3a89b40927eea776556e9f165f5046fa3"),
        (False, 3859, "403bb780795fd5daf01d5d4cc54696f3a89b40927eea776556e9f165f5046fa3"),
    ],
    "slow-le/fixed": [
        (True, 2328, "e492227fa71e45e8aaa4a26bdc0718e03ca2e36a0695619c9ba661e2c060b395"),
        (False, 3859, "403bb780795fd5daf01d5d4cc54696f3a89b40927eea776556e9f165f5046fa3"),
        (True, 3783, "e492227fa71e45e8aaa4a26bdc0718e03ca2e36a0695619c9ba661e2c060b395"),
        (True, 3298, "e492227fa71e45e8aaa4a26bdc0718e03ca2e36a0695619c9ba661e2c060b395"),
    ],
}


def _counts_digest(counts) -> str:
    ordered = sorted((repr(state), count) for state, count in counts.items())
    return hashlib.sha256(repr(ordered).encode()).hexdigest()


def driver_pin(protocol_name, engine_name, cadence, checkpoint_path) -> tuple:
    """``(interactions, final-counts digest, checks digest, checkpoints)``."""
    from repro.engine.recorder import OutputCountRecorder
    from repro.engine.simulation import Simulation

    key, max_parallel_time = DRIVER_PROTOCOLS[protocol_name]
    factory, n = PROTOCOLS[key]
    engine_spec, engine_kwargs = DRIVER_ENGINES[engine_name]
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


def mega_pins(protocol_name, cadence) -> list:
    """Per-cell ``(converged, interactions, final-counts digest)`` of one
    ``run_cells`` sweep (formerly one mega-cell)."""
    from repro.engine.parallel import run_cells

    factory, n = PROTOCOLS[protocol_name]
    points = run_cells(
        lambda size: factory(),
        n,
        list(MEGA_SEEDS),
        max_parallel_time=MEGA_CASES[protocol_name],
        engine="countbatch",
        engine_kwargs={"kernel": "python"},
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
    expected = EXPECTED[f"{protocol_name}/{engine_name}"]
    assert observed == expected, (
        f"{engine_name} changed its randomness consumption on "
        f"{protocol_name}: digest {observed} != pinned {expected}. If the "
        "change is intentional, regenerate the pins (see module docstring)."
    )


@pytest.mark.parametrize("protocol_name,engine_name", APPROX_CASES)
def test_approx_trajectory_digest_is_pinned(protocol_name, engine_name):
    factory, n = PROTOCOLS[protocol_name]
    observed = trajectory_digest(APPROX_ENGINES[engine_name], factory, n)
    expected = APPROX_EXPECTED[f"{protocol_name}/{engine_name}"]
    assert observed == expected, (
        f"{engine_name} changed its determinism contract on "
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
            print(f'    "{protocol_name}/{engine_name}": "{value}",')
    print("# approximate tier:")
    for protocol_name, engine_name in APPROX_CASES:
        factory, n = PROTOCOLS[protocol_name]
        value = trajectory_digest(APPROX_ENGINES[engine_name], factory, n)
        print(f'    "{protocol_name}/{engine_name}": "{value}",')
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
