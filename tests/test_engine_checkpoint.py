"""Checkpoint/resume: bit-exact snapshot/restore across every engine.

The acceptance property of the run-persistence subsystem: a run interrupted
at any driver boundary and resumed from a snapshot produces a trajectory
digest **byte-for-byte identical** to the uninterrupted run's *pinned*
digest (the pins from ``test_engine_trajectory_digests``).  The interrupted
digest is computed with the snapshot round-tripped through the on-disk
checkpoint format and restored into an engine built on a **fresh protocol
instance**, i.e. exactly the crashed-process-restarts scenario.
"""

from __future__ import annotations

import base64
import errno
import hashlib
import os
import random
import re
import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from test_engine_trajectory_digests import (
    _CHUNKS,
    ENGINES,
    EXPECTED,
    PROTOCOLS,
    expected_digest,
)

from repro.engine import atomic
from repro.engine._ckernel import kernel_available
from repro.engine.atomic import SwapWriter
from repro.engine.count_batch import _STREAM, CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.engine.recorder import Recorder
from repro.engine.scheduler import PAIR_CHUNK, PairSampler
from repro.errors import CheckpointError
from repro.experiments.io import read_checkpoint, swap_checkpoint, write_checkpoint
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.slow import SlowLeaderElection

#: The (protocol, engine) grid: every engine family of the acceptance
#: criterion — sequential, fastbatch (C when available), fastbatch-numpy,
#: countbatch — against a lazily discovering protocol (lottery, where
#: mid-run state discovery makes the encoder layout part of the snapshot),
#: a closure-laid-out one (gsu19, whose snapshots reference the closure by
#: digest) and an eagerly registered one (epidemic).
_PROTOCOL_NAMES = ("epidemic", "gsu19", "lottery")
_ENGINE_NAMES = ("sequential", "fastbatch", "fastbatch-numpy", "countbatch")


@pytest.fixture
def no_exchange(monkeypatch):
    """A filesystem that refuses ``renameat2``'s exchange: every swap
    writer publishes with ``os.replace``."""

    def refuse(first, second):
        raise OSError(errno.EINVAL, os.strerror(errno.EINVAL), str(first))

    monkeypatch.setattr(atomic, "_exchange", refuse)


def _exchanges(directory: Path) -> bool:
    """Whether ``directory``'s filesystem exchanges two entries."""
    first, second = directory / ".probe-first", directory / ".probe-second"
    first.write_bytes(b"1")
    second.write_bytes(b"2")
    try:
        atomic._exchange(first, second)
        return True
    except OSError:
        return False
    finally:
        first.unlink()
        second.unlink()


@pytest.fixture(params=["swap", "replace"])
def swapping(request, tmp_path):
    """Both publish paths of a run's checkpoints; the value is whether the
    run's writes swap (False on the forced ``os.replace`` path, and where
    ``tmp_path``'s filesystem cannot exchange)."""
    if request.param == "replace":
        request.getfixturevalue("no_exchange")
        return False
    return _exchanges(tmp_path)


def _digest_update(digest, engine) -> None:
    counts = sorted((repr(s), c) for s, c in engine.state_counts().items())
    digest.update(
        repr((engine.interactions, counts, engine.states_ever_occupied)).encode()
    )


def _resumed_digest(tmp_path, protocol_name, before, after, interrupt_after) -> str:
    """Digest of a run on ``before`` checkpointed after ``interrupt_after``
    chunks and finished on ``after`` (``interrupt_after == _CHUNKS`` gives
    the uninterrupted run's digest)."""
    protocol_factory, n = PROTOCOLS[protocol_name]
    seed = 20190622

    # Publish the start and every chunk's end as a run publishes its
    # checkpoints, through one swap writer: a one-shot write, then an
    # exchange, then (interrupt_after=2) a rewrite of the spare.
    path = tmp_path / "run.ckpt"
    writer = SwapWriter(path)
    digest = hashlib.sha256()
    engine = before(protocol_factory(), n, rng=seed)
    swap_checkpoint(engine.snapshot(), writer)
    for _ in range(interrupt_after):
        engine.run(2 * n + 3)
        _digest_update(digest, engine)
        swap_checkpoint(engine.snapshot(), writer)
    writer.close()

    # Crash: forget everything, restart from disk on a freshly constructed
    # protocol (fresh transition table, fresh caches).
    del engine

    snapshot = read_checkpoint(path)
    resumed = after(protocol_factory(), n, rng=0xDEAD)  # rng is overwritten
    resumed.restore(snapshot)
    for _ in range(_CHUNKS - interrupt_after):
        resumed.run(2 * n + 3)
        _digest_update(digest, resumed)
    return digest.hexdigest()


@pytest.mark.parametrize("engine_name", _ENGINE_NAMES)
@pytest.mark.parametrize("protocol_name", _PROTOCOL_NAMES)
@pytest.mark.parametrize("interrupt_after", [1, 2])
def test_interrupted_run_matches_pinned_digest(
    tmp_path, protocol_name, engine_name, interrupt_after
):
    """snapshot → file → restore mid-run reproduces the pinned digest."""
    _assert_resume_matches_pin(tmp_path, protocol_name, engine_name, interrupt_after)


@pytest.mark.parametrize("engine_name", _ENGINE_NAMES)
@pytest.mark.parametrize("protocol_name", _PROTOCOL_NAMES)
@pytest.mark.parametrize("interrupt_after", [1, 2])
def test_interrupted_run_matches_pinned_digest_on_replace(
    tmp_path, no_exchange, protocol_name, engine_name, interrupt_after
):
    """The same, with every checkpoint published by ``os.replace``."""
    _assert_resume_matches_pin(tmp_path, protocol_name, engine_name, interrupt_after)


def _assert_resume_matches_pin(tmp_path, protocol_name, engine_name, interrupt_after):
    engine_factory = ENGINES[engine_name]
    digest = _resumed_digest(
        tmp_path, protocol_name, engine_factory, engine_factory, interrupt_after
    )
    assert digest == expected_digest(protocol_name, engine_name), (
        f"{engine_name} on {protocol_name}: resume after chunk "
        f"{interrupt_after} diverged from the uninterrupted pinned trajectory"
    )


def _fast_batch(kernel: str):
    def factory(protocol, n, rng=None):
        return FastBatchEngine(protocol, n, rng, kernel=kernel)

    return factory


@pytest.mark.skipif(not kernel_available(), reason="no C kernel in this environment")
@pytest.mark.parametrize("recorded,restoring", [("c", "numpy"), ("numpy", "c")])
@pytest.mark.parametrize("protocol_name", _PROTOCOL_NAMES)
def test_fast_batch_checkpoint_resumes_across_kernel_paths(
    tmp_path, protocol_name, recorded, restoring
):
    """A fast-batch checkpoint resumes byte-exactly on the other
    block-application path: the C kernel's own draws leave the generator
    exactly where ``pair_block`` leaves it, so the recorded RNG state means
    the same on both."""
    digest = _resumed_digest(
        tmp_path, protocol_name, _fast_batch(recorded), _fast_batch(restoring), 1
    )
    assert digest == EXPECTED[f"{protocol_name}/fastbatch"]


@pytest.mark.parametrize("kernel", ["auto", "numpy"])
@pytest.mark.parametrize("recorded,restoring", [(64, PAIR_CHUNK), (PAIR_CHUNK, 64)])
def test_fast_batch_resume_follows_the_checkpoint_block(
    kernel, recorded, restoring
):
    """The checkpoint's block, not the restoring engine, decides the resume.

    Older builds recorded the fast-batch pair-block size and let the
    restoring engine pick its own; the engine now draws blocks of
    ``PAIR_CHUNK`` only and takes no ``block`` argument.  A checkpoint that
    records that size resumes onto the pinned uninterrupted trajectory; one
    that records any other size drew a different stream and is refused with
    a CheckpointError naming the recorded size."""
    protocol_factory, n = PROTOCOLS["gsu19"]
    digest = hashlib.sha256()
    engine = FastBatchEngine(protocol_factory(), n, rng=20190622, kernel=kernel)
    engine.run(2 * n + 3)
    _digest_update(digest, engine)
    snapshot = engine.snapshot()
    assert "block" not in snapshot["payload"]
    snapshot["payload"]["block"] = recorded  # the field as older builds wrote it

    with pytest.raises(TypeError, match="block"):
        FastBatchEngine.from_snapshot(
            protocol_factory(), snapshot, kernel=kernel, block=restoring
        )
    if recorded != PAIR_CHUNK:
        with pytest.raises(CheckpointError, match=f"blocks of {recorded};"):
            FastBatchEngine.from_snapshot(protocol_factory(), snapshot, kernel=kernel)
        return
    resumed = FastBatchEngine.from_snapshot(protocol_factory(), snapshot, kernel=kernel)
    for _ in range(_CHUNKS - 1):
        resumed.run(2 * n + 3)
        _digest_update(digest, resumed)
    assert digest.hexdigest() == EXPECTED["gsu19/fastbatch"]


def test_from_snapshot_classmethod_is_equivalent():
    protocol_factory, n = PROTOCOLS["epidemic"]
    engine = SequentialEngine(protocol_factory(), n, rng=11)
    engine.run(2 * n)
    resumed = SequentialEngine.from_snapshot(protocol_factory(), engine.snapshot())
    engine.run(2 * n)
    resumed.run(2 * n)
    assert resumed.interactions == engine.interactions
    assert resumed.state_counts() == engine.state_counts()
    assert resumed.states_ever_occupied == engine.states_ever_occupied


# ----------------------------------------------------------------------
# Component-level snapshots
# ----------------------------------------------------------------------
def test_pair_sampler_snapshot_resumes_mid_buffer():
    """A snapshot taken after any drawn prefix resumes the pair stream
    exactly.  Schedulers no longer buffer pairs, so the generator state alone
    carries the stream; the empty pending tail older builds wrote beside it
    restores as if absent."""
    sampler = PairSampler(64, rng=5)
    sampler.pair_block(17)
    snapshot = sampler.state_snapshot()
    assert "pending" not in snapshot
    sizes = (40, 1, PAIR_CHUNK)
    expected = [sampler.pair_block(size) for size in sizes]

    snapshot["pending"] = {"encoding": "base64/int64-le", "a": "", "b": ""}
    restored = PairSampler(64, rng=999)
    restored.state_restore(snapshot)
    for size, block in zip(sizes, expected):
        np.testing.assert_array_equal(restored.pair_block(size), block)


def test_pair_sampler_snapshot_with_a_pending_tail_is_refused():
    """A non-empty pending tail from an older build owes pairs no build
    draws any more, so the snapshot is refused rather than resumed off by
    that tail."""
    snapshot = PairSampler(64, rng=5).state_snapshot()
    one_pair = base64.b64encode(np.array([3], dtype="<i8").tobytes()).decode("ascii")
    snapshot["pending"] = {"encoding": "base64/int64-le", "a": one_pair, "b": one_pair}
    with pytest.raises(CheckpointError, match="non-empty pending tail"):
        PairSampler(64, rng=999).state_restore(snapshot)


def test_pair_sampler_snapshot_rejects_population_mismatch():
    sampler = PairSampler(64, rng=5)
    snapshot = sampler.state_snapshot()
    other = PairSampler(128, rng=5)
    with pytest.raises(CheckpointError):
        other.state_restore(snapshot)


# ----------------------------------------------------------------------
# Restore validation
# ----------------------------------------------------------------------
def test_restore_rejects_engine_mismatch():
    protocol_factory, n = PROTOCOLS["epidemic"]
    snapshot = SequentialEngine(protocol_factory(), n, rng=1).snapshot()
    other = CountBatchEngine(protocol_factory(), n, rng=1)
    with pytest.raises(CheckpointError, match="SequentialEngine"):
        other.restore(snapshot)


def test_restore_rejects_population_mismatch():
    protocol_factory, n = PROTOCOLS["epidemic"]
    snapshot = SequentialEngine(protocol_factory(), n, rng=1).snapshot()
    other = SequentialEngine(protocol_factory(), n * 2, rng=1)
    with pytest.raises(CheckpointError, match="population size"):
        other.restore(snapshot)


def test_restore_rejects_protocol_mismatch():
    snapshot = SequentialEngine(OneWayEpidemic(), 32, rng=1).snapshot()
    other = SequentialEngine(SlowLeaderElection(), 32, rng=1)
    with pytest.raises(CheckpointError, match="protocol"):
        other.restore(snapshot)


def test_restore_rejects_unknown_version():
    protocol_factory, n = PROTOCOLS["epidemic"]
    engine = SequentialEngine(protocol_factory(), n, rng=1)
    snapshot = engine.snapshot()
    snapshot["version"] = 999
    with pytest.raises(CheckpointError, match="version"):
        SequentialEngine(protocol_factory(), n, rng=1).restore(snapshot)


def test_checkpoint_file_round_trip_and_validation(tmp_path):
    payload = {"hello": [1, 2, 3]}
    path = tmp_path / "x.ckpt"
    write_checkpoint(payload, path)
    assert read_checkpoint(path) == payload

    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        read_checkpoint(junk)
    with pytest.raises(CheckpointError):
        read_checkpoint(tmp_path / "missing.ckpt")


# ----------------------------------------------------------------------
# Simulation-level checkpoint / resume
# ----------------------------------------------------------------------
def test_run_protocol_resume_reproduces_uninterrupted_run(tmp_path):
    """Crash at half budget + resume == one uninterrupted run, exactly."""
    _assert_resume_reproduces_uninterrupted_run(tmp_path)


def test_run_protocol_resume_reproduces_uninterrupted_run_on_replace(
    tmp_path, no_exchange
):
    """The same, with every checkpoint published by ``os.replace``."""
    _assert_resume_reproduces_uninterrupted_run(tmp_path)


def _assert_resume_reproduces_uninterrupted_run(tmp_path):
    from repro.engine.simulation import run_protocol

    n, total = 64, 16.0
    path = tmp_path / "epidemic.ckpt"

    full = run_protocol(OneWayEpidemic(), n, seed=9, max_parallel_time=total)
    interrupted = run_protocol(
        OneWayEpidemic(),
        n,
        seed=9,
        max_parallel_time=total / 2,
        checkpoint_every=n,
        checkpoint_path=path,
    )
    assert path.exists()
    assert interrupted.interactions == total / 2 * n

    resumed = run_protocol(
        OneWayEpidemic(),
        n,
        seed=9,
        max_parallel_time=total,  # total budget, not additional
        checkpoint_path=path,
        resume=True,
    )
    assert resumed.interactions == full.interactions
    assert resumed.final_counts == full.final_counts
    assert resumed.final_outputs == full.final_outputs
    assert resumed.states_used == full.states_used


def test_run_protocol_resume_without_file_starts_fresh(tmp_path):
    """The same resume command line works for the very first attempt."""
    from repro.engine.simulation import run_protocol

    path = tmp_path / "never-written.ckpt"
    result = run_protocol(
        OneWayEpidemic(), 32, seed=2, max_parallel_time=4.0,
        checkpoint_path=path, resume=True,
    )
    assert result.interactions == 4 * 32


def test_run_protocol_resume_preserves_auto_engine_choice(tmp_path):
    """The checkpoint records the resolved engine; resume honours it."""
    from repro.engine.dispatch import resolve_engine
    from repro.engine.simulation import Simulation

    n = 64
    simulation = Simulation(
        OneWayEpidemic(),
        n,
        rng=4,
        engine_cls="countbatch",
        checkpoint_every=n,
        checkpoint_path=tmp_path / "c.ckpt",
    )
    simulation.run(max_parallel_time=4.0)
    resumed = Simulation.from_checkpoint(OneWayEpidemic(), tmp_path / "c.ckpt")
    assert type(resumed.engine) is resolve_engine("countbatch")
    assert resumed.engine.interactions == simulation.engine.interactions


@pytest.mark.parametrize(
    "recorded", ["count", "batch", "tauleap", "meanfield", "nowhere.module:Engine"]
)
def test_resume_rejects_engine_this_build_does_not_provide(tmp_path, recorded):
    """A checkpoint naming an engine outside the registry (such as the
    retired ``count``, ``batch``, ``tauleap`` and ``meanfield`` engines)
    fails with a CheckpointError that names it and the valid engines, not
    an import error."""
    from repro.engine.simulation import Simulation

    simulation = Simulation(
        OneWayEpidemic(),
        64,
        rng=4,
        engine_cls="countbatch",
        checkpoint_path=tmp_path / "c.ckpt",
    )
    payload = simulation.checkpoint_payload()
    payload["engine_cls"] = recorded
    with pytest.raises(CheckpointError, match="valid engine names") as error:
        Simulation.from_checkpoint(OneWayEpidemic(), payload)
    assert repr(recorded) in str(error.value)
    assert "countbatch" in str(error.value)


def test_resume_rejects_different_protocol_parameters(tmp_path):
    """Same protocol *name*, different parameters: resuming would continue
    the old configuration under different transition rules — refused."""
    from repro.core.protocol import GSULeaderElection
    from repro.engine.simulation import Simulation

    path = tmp_path / "gsu.ckpt"
    simulation = Simulation(
        GSULeaderElection.for_population(256),
        256,
        rng=1,
        checkpoint_every=256,
        checkpoint_path=path,
    )
    simulation.run(max_parallel_time=4.0)
    with pytest.raises(CheckpointError, match="different parameters"):
        Simulation.from_checkpoint(GSULeaderElection.for_population(10**6), path)
    # The original parameterisation resumes fine.
    resumed = Simulation.from_checkpoint(GSULeaderElection.for_population(256), path)
    assert resumed.engine.interactions == simulation.engine.interactions


def test_resume_rejects_population_size_mismatch(tmp_path):
    """run_protocol(resume=True) must not silently ignore the caller's n."""
    from repro.engine.simulation import run_protocol

    path = tmp_path / "n.ckpt"
    run_protocol(
        OneWayEpidemic(), 64, seed=1, max_parallel_time=2.0,
        checkpoint_every=64, checkpoint_path=path,
    )
    with pytest.raises(CheckpointError, match="population size"):
        run_protocol(
            OneWayEpidemic(), 128, seed=1, max_parallel_time=4.0,
            checkpoint_path=path, resume=True,
        )


def test_simulation_checkpoint_requires_path():
    from repro.engine.simulation import Simulation
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        Simulation(OneWayEpidemic(), 32, checkpoint_every=32)


def test_scenario_run_resume_reproduces_uninterrupted_run(tmp_path):
    """Satellite of the scenario layer: a cycle-topology run with churn,
    interrupted mid-flight and resumed from disk, reproduces the
    uninterrupted trajectory byte-for-byte — liveness masks, event
    counters and the scheduler's graph state all ride in the checkpoint."""
    from repro.engine.simulation import run_protocol
    from repro.scenarios import get_scenario

    scenario = get_scenario("cycle-churn")
    n, total = 48, 40.0
    path = tmp_path / "disrupted.ckpt"

    def run(max_parallel_time, **kwargs):
        return run_protocol(
            SlowLeaderElection(),
            n,
            seed=13,
            max_parallel_time=max_parallel_time,
            scenario=scenario,
            **kwargs,
        )

    full = run(total)
    assert full.metadata["scenario_events"]["leaves"] > 0  # churn actually hit
    interrupted = run(total / 2, checkpoint_every=n, checkpoint_path=path)
    assert path.exists()
    assert interrupted.interactions < full.interactions

    resumed = run(total, checkpoint_path=path, resume=True)
    assert resumed.interactions == full.interactions
    assert resumed.final_counts == full.final_counts
    assert resumed.final_outputs == full.final_outputs
    assert resumed.metadata["scenario_events"] == full.metadata["scenario_events"]


def test_scenario_resume_rejects_different_scenario(tmp_path):
    """A checkpoint taken under one scenario must not silently resume under
    another (or under the default model)."""
    from repro.engine.simulation import Simulation, run_protocol
    from repro.scenarios import Cycle, Scenario, get_scenario

    path = tmp_path / "cycle.ckpt"
    run_protocol(
        SlowLeaderElection(),
        48,
        seed=13,
        max_parallel_time=10.0,
        scenario=get_scenario("cycle-churn"),
        checkpoint_every=48,
        checkpoint_path=path,
    )
    with pytest.raises(CheckpointError, match="scenario"):
        Simulation.from_checkpoint(
            SlowLeaderElection(), path, scenario=Scenario(topology=Cycle())
        )
    # Omitting the scenario resumes under the recorded one.
    resumed = Simulation.from_checkpoint(SlowLeaderElection(), path)
    assert resumed.scenario is not None
    assert resumed.scenario.describe() == get_scenario("cycle-churn").describe()


# ----------------------------------------------------------------------
# Stateful convergence predicates across resume
# ----------------------------------------------------------------------
def test_stable_outputs_streak_survives_resume(tmp_path):
    """An interrupt+resume run converges exactly where the uninterrupted
    one does, even when the interrupt lands mid-streak: the predicate's
    memory (last output census + streak) rides in the checkpoint."""
    from repro.engine.convergence import StableOutputs
    from repro.engine.simulation import run_protocol

    def run(max_parallel_time, **kwargs):
        return run_protocol(
            OneWayEpidemic(),
            64,
            seed=5,
            max_parallel_time=max_parallel_time,
            convergence=StableOutputs(patience=3),
            **kwargs,
        )

    full = run(40.0)
    assert full.converged
    # Interrupt both before any streak exists and mid-streak (the epidemic
    # saturates within a few parallel-time units at n=64, so by cut=2.0 the
    # streak has started but patience is not yet reached).
    for cut in (1.0, 2.0):
        path = tmp_path / f"stable-{cut}.ckpt"
        interrupted = run(cut, checkpoint_every=64, checkpoint_path=path)
        assert not interrupted.converged
        resumed = run(40.0, checkpoint_path=path, resume=True)
        assert resumed.converged == full.converged
        assert resumed.interactions == full.interactions
        assert resumed.final_counts == full.final_counts


def test_checkpoint_ignores_predicate_state_of_different_type(tmp_path):
    """Resuming with a different predicate type starts that predicate fresh
    (the recorded memory is guarded by a type tag, not applied blindly)."""
    from repro.engine.convergence import NeverConverge, StableOutputs
    from repro.engine.simulation import run_protocol

    path = tmp_path / "switch.ckpt"
    run_protocol(
        OneWayEpidemic(),
        64,
        seed=5,
        max_parallel_time=2.0,
        convergence=StableOutputs(patience=3),
        checkpoint_every=64,
        checkpoint_path=path,
    )
    resumed = run_protocol(
        OneWayEpidemic(),
        64,
        seed=5,
        max_parallel_time=4.0,
        convergence=NeverConverge(),
        checkpoint_path=path,
        resume=True,
    )
    assert not resumed.converged
    assert resumed.interactions == 4 * 64


def test_fixed_cadence_resume_bit_exact_at_clipped_cut(tmp_path):
    """A budget cut that falls off the check grid must not leave a
    checkpoint at the clipped check (the longer run never visits that
    configuration).  Pinned with a deliberately mid-period cut."""
    from repro.core.protocol import GSULeaderElection
    from repro.engine.simulation import run_protocol

    def run(max_parallel_time, **kwargs):
        return run_protocol(
            GSULeaderElection.for_population(512),
            512,
            seed=7,
            engine_cls="fastbatch",
            engine_kwargs={"kernel": "numpy"},
            check_every=512,
            max_parallel_time=max_parallel_time,
            **kwargs,
        )

    full = run(30.0)
    for cut in (17.0, 17.3):  # aligned and mid-period cuts
        path = tmp_path / f"fixed-{cut}.ckpt"
        run(cut, checkpoint_every=50, checkpoint_path=path)
        resumed = run(30.0, checkpoint_path=path, resume=True)
        assert resumed.interactions == full.interactions
        assert resumed.final_counts == full.final_counts


def test_resume_refuses_retired_adaptive_checkpoints(tmp_path):
    """A checkpoint of the retired adaptive cadence (``check_every`` of
    "auto", or a recorded controller state) is refused by name, through
    ``from_checkpoint`` and ``run_protocol(resume=True)`` alike; a payload
    whose ``auto_cadence`` is ``None`` (every fixed-cadence checkpoint
    written while the cadence existed) still resumes bit-exactly."""
    from repro.engine.convergence import NeverConverge
    from repro.engine.simulation import Simulation, run_protocol

    def run(max_parallel_time, **kwargs):
        return run_protocol(
            OneWayEpidemic(), 64, seed=5, convergence=NeverConverge(),
            max_parallel_time=max_parallel_time, **kwargs,
        )

    full = run(6.0)
    path = tmp_path / "fixed.ckpt"
    run(4.0, checkpoint_every=64, checkpoint_path=path)
    payload = read_checkpoint(path)
    assert "auto_cadence" not in payload
    retired = {
        "auto": {**payload, "check_every": "auto", "auto_cadence": None},
        "controller": {
            **payload,
            "auto_cadence": {"period": 128, "signature": {"I": 64}},
        },
    }
    for name, checkpoint in retired.items():
        with pytest.raises(CheckpointError, match="retired adaptive check cadence"):
            Simulation.from_checkpoint(OneWayEpidemic(), checkpoint)
        retired_path = write_checkpoint(checkpoint, tmp_path / f"{name}.ckpt")
        with pytest.raises(CheckpointError, match="retired adaptive check cadence"):
            run(6.0, checkpoint_path=retired_path, resume=True)
    legacy = write_checkpoint(
        {**payload, "auto_cadence": None}, tmp_path / "legacy.ckpt"
    )
    resumed = run(6.0, checkpoint_path=legacy, resume=True)
    assert resumed.interactions == full.interactions
    assert resumed.final_counts == full.final_counts


# ----------------------------------------------------------------------
# Checkpoint file faults
# ----------------------------------------------------------------------
def _small_checkpoint(path):
    """A small countbatch simulation checkpoint (under 1 KB) and its bytes."""
    from repro.engine.simulation import run_protocol

    run_protocol(
        SlowLeaderElection(),
        64,
        seed=3,
        engine_cls="countbatch",
        max_parallel_time=4.0,
        checkpoint_every=64,
        checkpoint_path=path,
    )
    return path.read_bytes()


def _assert_refused(path):
    """Resuming from ``path`` raises CheckpointError naming the file."""
    from repro.engine.simulation import Simulation

    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        Simulation.from_checkpoint(SlowLeaderElection(), path)


def test_every_truncation_is_refused(tmp_path):
    good = _small_checkpoint(tmp_path / "good.ckpt")
    path = tmp_path / "torn.ckpt"
    for length in range(len(good)):
        path.write_bytes(good[:length])
        _assert_refused(path)


def test_bit_flips_are_refused(tmp_path):
    good = _small_checkpoint(tmp_path / "good.ckpt")
    path = tmp_path / "flipped.ckpt"
    rng = random.Random(20190622)
    for _ in range(400):
        corrupt = bytearray(good)
        corrupt[rng.randrange(len(good))] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(corrupt))
        _assert_refused(path)


@pytest.mark.parametrize(
    "magic", [b"repro-checkpoint 3", b"repro-checkpoint", b"other-format 2", b""]
)
def test_wrong_magic_is_refused(tmp_path, magic):
    good = _small_checkpoint(tmp_path / "good.ckpt")
    path = tmp_path / "magic.ckpt"
    path.write_bytes(magic + good[good.index(b"\n") :])
    _assert_refused(path)


def test_stray_temp_file_does_not_affect_resume(tmp_path):
    """A temp file left by a crashed write is ignored: resume reads only
    the checkpoint itself."""
    from repro.engine.simulation import run_protocol

    path = tmp_path / "run.ckpt"
    kwargs = dict(seed=3, engine_cls="countbatch")
    full = run_protocol(SlowLeaderElection(), 64, max_parallel_time=8.0, **kwargs)
    _small_checkpoint(path)
    stray = tmp_path / ".run.ckpt.crashed"
    stray.write_bytes(b"repro-checkpoint 2\n" + b"0" * 64 + b"\npartial")
    resumed = run_protocol(
        SlowLeaderElection(), 64, max_parallel_time=8.0,
        checkpoint_path=path, resume=True, **kwargs,
    )
    assert resumed.interactions == full.interactions
    assert resumed.final_counts == full.final_counts
    assert stray.exists()


def test_concurrent_writers_leave_one_whole_checkpoint(tmp_path):
    path = tmp_path / "shared.ckpt"
    payloads = [{"writer": index, "data": bytes([index]) * 200_000} for index in (1, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            barrier = threading.Barrier(2)
            errors = []

            def write(payload):
                try:
                    barrier.wait(timeout=10)
                    write_checkpoint(payload, path)
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert not errors
            assert read_checkpoint(path) in payloads
    finally:
        sys.setswitchinterval(interval)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shared.ckpt"]


def _fill_disk(monkeypatch):
    """Make every atomic write, one-shot or swap, fail with ENOSPC after a
    partial write."""

    def full_disk(descriptor, chunks):
        os.write(descriptor, bytes(chunks[0][:16]))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(atomic, "_write_chunks", full_disk)


def test_write_failure_names_the_file_and_keeps_the_previous(tmp_path, monkeypatch):
    from repro.experiments.io import atomic_write_text

    path = tmp_path / "run.ckpt"
    write_checkpoint({"generation": 1}, path)
    _fill_disk(monkeypatch)
    with pytest.raises(CheckpointError, match=re.escape(str(path))) as raised:
        write_checkpoint({"generation": 2}, path)
    assert isinstance(raised.value.__cause__, OSError)
    assert raised.value.__cause__.errno == errno.ENOSPC
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]
    assert read_checkpoint(path) == {"generation": 1}
    # Result files keep raising the OSError itself.
    with pytest.raises(OSError) as raised_text:
        atomic_write_text(tmp_path / "result.json", "{}")
    assert not isinstance(raised_text.value, CheckpointError)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]


def test_atomic_writes_get_plain_file_permissions(tmp_path):
    """Checkpoints, store cells and result.json come out as a plain write
    would make them under the umask: 0o644 under 0o022, not 0o600."""
    from repro.engine.simulation import run_protocol
    from repro.experiments.io import write_result
    from repro.experiments.runner import ExperimentResult
    from repro.experiments.store import ExperimentStore

    run = run_protocol(SlowLeaderElection(), 16, seed=1, max_parallel_time=50.0)
    previous = os.umask(0o022)
    try:
        paths = [
            write_checkpoint({"generation": 1}, tmp_path / "run.ckpt"),
            ExperimentStore(tmp_path / "store").save_result("cell", run),
            write_result(ExperimentResult("demo", "permissions"), tmp_path / "out")
            / "result.json",
        ]
    finally:
        os.umask(previous)
    assert [oct(path.stat().st_mode & 0o777) for path in paths] == ["0o644"] * 3


# ----------------------------------------------------------------------
# A run's checkpoints: one swap writer per run
# ----------------------------------------------------------------------
def _names(directory: Path) -> list:
    return sorted(path.name for path in directory.iterdir())


def _position(path: Path) -> int:
    """The engine position a checkpoint file was taken at; reading it
    verifies its sha256."""
    return read_checkpoint(path)["engine_snapshot"]["interactions"]


class _CheckpointAudit(Recorder):
    """Holds a running simulation's published checkpoints to its writes.

    Every write's engine position is noted.  At each check (before that
    check's own write), the file at ``checkpoint_path`` must verify and
    hold the last written position.  On the swap path the directory also
    holds the run's temp file from the second write on, which must verify
    and hold the write before; otherwise the checkpoint is alone.
    """

    def __init__(self, simulation, swapping: bool) -> None:
        self.simulation, self.swapping = simulation, swapping
        self.positions, self.inodes, self.audits = [], set(), 0
        write = simulation.write_checkpoint

        def write_and_note():
            path = write()
            self.positions.append(simulation.engine.interactions)
            return path

        simulation.write_checkpoint = write_and_note
        simulation.add_recorder(self)

    def record(self, engine) -> None:
        path = self.simulation.checkpoint_path
        if not self.positions:
            assert not path.exists()
            return
        assert _position(path) == self.positions[-1]
        self.inodes.add(path.stat().st_ino)
        others = [name for name in _names(path.parent) if name != path.name]
        if self.swapping and len(self.positions) > 1:
            assert len(others) == 1 and others[0].startswith(f".{path.name}.")
            assert _position(path.parent / others[0]) == self.positions[-2]
        else:
            assert others == []
        self.audits += 1


def _slow_simulation(path: Path, engine: str = "countbatch", recorders=()):
    """Slow leader election at n = 64 (far from electing within 12 parallel
    time), checked and checkpointed every n interactions."""
    from repro.engine.simulation import Simulation

    return Simulation(
        SlowLeaderElection(), 64, rng=3, engine_cls=engine, recorders=recorders,
        checkpoint_every=64, checkpoint_path=path,
    )


@pytest.mark.parametrize("engine", ["countbatch", "fastbatch"])
def test_every_due_checkpoint_is_whole_while_the_run_goes_on(tmp_path, swapping, engine):
    """At every check the checkpoint verifies and holds the last write. A
    writer that rewrote the file at the path (a descriptor kept across an
    exchange) would leave a stale or torn checkpoint there."""
    simulation = _slow_simulation(tmp_path / "run.ckpt", engine)
    audit = _CheckpointAudit(simulation, swapping)
    result = simulation.run(max_parallel_time=12.0)
    assert not result.converged
    assert audit.positions == [64 * k for k in range(1, 13)]
    assert audit.audits == 11
    assert _names(tmp_path) == ["run.ckpt"]
    assert _position(tmp_path / "run.ckpt") == 12 * 64
    if swapping:  # two inodes, exchanged back and forth
        assert len(audit.inodes) == 2


class _AtCheck(Recorder):
    """Calls ``action`` at check number ``at``, before that check's write.
    The first check is at the start, so the check before write ``w`` is
    number ``w + 1``."""

    def __init__(self, at: int, action) -> None:
        self.at, self.action, self.checks = at, action, 0

    def record(self, engine) -> None:
        self.checks += 1
        if self.checks == self.at:
            self.action()


def test_a_run_leaves_only_its_checkpoint(tmp_path, swapping):
    """The run's temp file is removed when run() returns, and when it
    raises mid-run (here from a recorder, after four writes)."""
    path = tmp_path / "run.ckpt"
    _slow_simulation(path).run(max_parallel_time=6.0)
    assert _names(tmp_path) == ["run.ckpt"]
    assert _position(path) == 6 * 64

    def crash():
        raise RuntimeError("recorder crashed")

    simulation = _slow_simulation(path, recorders=[_AtCheck(6, crash)])
    with pytest.raises(RuntimeError, match="recorder crashed"):
        simulation.run(max_parallel_time=12.0)
    assert _names(tmp_path) == ["run.ckpt"]
    assert _position(path) == 4 * 64


def test_failed_run_write_names_the_file_and_keeps_the_previous(
    tmp_path, monkeypatch, swapping
):
    """The disk fills before a run's fourth write; the first three were a
    one-shot write, an exchange and a rewrite of the spare.  The write
    raises CheckpointError naming the checkpoint, the third checkpoint
    still reads back, and no temp file is left."""
    path = tmp_path / "run.ckpt"
    fill = _AtCheck(5, lambda: _fill_disk(monkeypatch))
    simulation = _slow_simulation(path, recorders=[fill])
    with pytest.raises(CheckpointError, match=re.escape(str(path))) as raised:
        simulation.run(max_parallel_time=12.0)
    assert raised.value.__cause__.errno == errno.ENOSPC
    assert _names(tmp_path) == ["run.ckpt"]
    assert _position(path) == 3 * 64


def test_both_inodes_of_a_run_get_plain_file_permissions(tmp_path):
    """After two writes the path holds the inode the swap writer created,
    after three the one-shot one: both 0o644 under the umask 0o022."""
    path = tmp_path / "run.ckpt"
    previous = os.umask(0o022)
    try:
        modes = []
        for parallel_time in (2.0, 3.0):
            _slow_simulation(path).run(max_parallel_time=parallel_time)
            modes.append(oct(path.stat().st_mode & 0o777))
    finally:
        os.umask(previous)
    assert modes == ["0o644"] * 2


def test_a_run_replaces_a_checkpoint_removed_mid_run(tmp_path):
    """A checkpoint deleted under a running swap writer is published again
    by ``os.replace`` (the fourth write); the writer swaps again from the
    next write on, so the temp file is back before the sixth write."""
    path = tmp_path / "run.ckpt"
    listed = []
    simulation = _slow_simulation(path, recorders=[
        _AtCheck(5, path.unlink), _AtCheck(7, lambda: listed.append(_names(tmp_path))),
    ])
    simulation.run(max_parallel_time=8.0)
    assert _names(tmp_path) == ["run.ckpt"]
    assert _position(path) == 8 * 64
    assert len(listed[0]) == (2 if _exchanges(tmp_path) else 1)


# ----------------------------------------------------------------------
# Snapshot layout: version-1 files, closure prefix by digest
# ----------------------------------------------------------------------
_FIXTURES = Path(__file__).parent / "fixtures"


def _closure_gsu():
    from repro.core.params import GSUParams
    from repro.core.protocol import GSULeaderElection

    return GSULeaderElection(GSUParams(n_hint=30_000_000, gamma=4, phi=1, psi=1))


def _gsu64():
    from repro.core.protocol import GSULeaderElection

    return GSULeaderElection.for_population(64)


def _run_digest(result) -> str:
    counts = sorted((repr(state), count) for state, count in result.final_counts.items())
    return hashlib.sha256(
        repr((result.interactions, counts, result.states_used)).encode()
    ).hexdigest()[:16]


#: Version-1 checkpoints written by the version-1 writer (envelope and
#: snapshot version 1) halfway through a run of ``total`` parallel time,
#: with the uninterrupted run's interactions and digest.
_V1_FIXTURES = {
    "v1_sequential": dict(
        factory=_gsu64, n=64, seed=5, engine_cls="sequential",
        engine_kwargs=None, total=300.0,
        interactions=19200, digest="cf2e60406e4a4fe1",
    ),
}


@pytest.mark.parametrize("name", sorted(_V1_FIXTURES))
def test_version_1_checkpoint_resumes_to_the_uninterrupted_digest(tmp_path, name):
    from repro.engine.convergence import NeverConverge
    from repro.engine.simulation import run_protocol

    case = _V1_FIXTURES[name]
    path = tmp_path / f"{name}.ckpt"
    shutil.copyfile(_FIXTURES / f"{name}.ckpt", path)
    assert path.read_bytes()[:1] == b"\x80"  # a bare pickle: envelope version 1
    assert read_checkpoint(path)["engine_snapshot"]["version"] == 1
    resumed = run_protocol(
        case["factory"](),
        case["n"],
        seed=case["seed"],
        engine_cls=case["engine_cls"],
        engine_kwargs=case["engine_kwargs"],
        convergence=NeverConverge(),
        check_every=case["n"],
        max_parallel_time=case["total"],
        checkpoint_path=path,
        resume=True,
    )
    assert resumed.interactions == case["interactions"]
    assert _run_digest(resumed) == case["digest"]


def test_retired_count_stream_checkpoint_is_refused(tmp_path):
    """``v1_countbatch_closure.ckpt`` was written by the retired NumPy count
    stream, which no build draws any more: resuming it must fail and name
    that stream, never continue on the xoshiro one."""
    from repro.engine.convergence import NeverConverge
    from repro.engine.simulation import run_protocol

    path = tmp_path / "v1_countbatch_closure.ckpt"
    shutil.copyfile(_FIXTURES / "v1_countbatch_closure.ckpt", path)
    assert "kernel_rng" not in read_checkpoint(path)["engine_snapshot"]["payload"]
    for kernel in ("auto", "python"):
        with pytest.raises(CheckpointError, match="retired NumPy count stream"):
            run_protocol(
                _closure_gsu(), 4096, seed=31, engine_cls="countbatch",
                engine_kwargs={"kernel": kernel}, convergence=NeverConverge(),
                check_every=4096, max_parallel_time=40.0, checkpoint_path=path,
                resume=True,
            )


#: Fixtures of retired count streams, each written by the last commit that
#: drew it (closure GSU19 Γ4/Φ1/Ψ1, n = 4,096, seed 31, 20 PT): the stream
#: id its payload carries and the name a refusal gives.
_RETIRED_STREAM_FIXTURES = {
    "split_stream_countbatch": (None, "retired split-only count stream"),
    "stream2_countbatch": (2, "retired stream-2 count stream"),
}


@pytest.mark.parametrize("name", sorted(_RETIRED_STREAM_FIXTURES))
def test_split_only_count_stream_checkpoint_is_refused(tmp_path, name):
    """Each fixture was written by a retired xoshiro count stream: the
    split-only one (every batch drawn by hypergeometric splits, no stream
    id in the payload) or stream 2 (direct batches picked through a
    Fenwick tree).  ``from_checkpoint`` and ``run_protocol(resume=True)``
    refuse it by name on both kernel implementations, and a current
    snapshot records the stream it continues."""
    from repro.engine.convergence import NeverConverge
    from repro.engine.simulation import Simulation, run_protocol

    stream, refusal = _RETIRED_STREAM_FIXTURES[name]
    path = tmp_path / f"{name}.ckpt"
    shutil.copyfile(_FIXTURES / f"{name}.ckpt", path)
    payload = read_checkpoint(path)["engine_snapshot"]["payload"]
    assert "kernel_rng" in payload and payload.get("stream") == stream
    for kernel in ("auto", "python"):
        with pytest.raises(CheckpointError, match=refusal):
            Simulation.from_checkpoint(
                _closure_gsu(), path, engine_kwargs={"kernel": kernel}
            )
        with pytest.raises(CheckpointError, match=refusal):
            run_protocol(
                _closure_gsu(), 4096, seed=31, engine_cls="countbatch",
                engine_kwargs={"kernel": kernel}, convergence=NeverConverge(),
                check_every=4096, max_parallel_time=40.0, checkpoint_path=path,
                resume=True,
            )
    engine = CountBatchEngine(_closure_gsu(), 4096, rng=31)
    engine.run(4096)
    assert engine.snapshot()["payload"]["stream"] == _STREAM == 3


def test_lazy_layout_checkpoint_resumes_onto_the_closure_table(tmp_path):
    """A fast-batch GSU19 checkpoint written on a lazily laid-out table
    (snapshot version 2, no canonical prefix, the discovered layout as its
    tail) resumes onto the closure table the engine now starts on: the
    recorded ids are mapped onto the table's, and the run reaches the
    uninterrupted run's digest, recorded with the checkpoint."""
    from repro.engine.convergence import NeverConverge
    from repro.engine.simulation import run_protocol

    path = tmp_path / "v2_fastbatch.ckpt"
    shutil.copyfile(_FIXTURES / "v2_fastbatch.ckpt", path)
    snapshot = read_checkpoint(path)["engine_snapshot"]
    assert snapshot["version"] == 2 and snapshot["canonical"][0] == 0
    assert snapshot["engine"] == "FastBatchEngine" and snapshot["encoder_tail"]
    resumed = run_protocol(
        _gsu64(), 64, seed=7, engine_cls="fastbatch", convergence=NeverConverge(),
        check_every=64, max_parallel_time=300.0, checkpoint_path=path, resume=True,
    )
    assert resumed.interactions == 19200
    assert _run_digest(resumed) == "47c9778885e2b33a"


def _closure_count_snapshot() -> dict:
    """A count-batch GSU19 snapshot on the closure table: the whole layout
    is the canonical prefix, and the tail is empty."""
    engine = CountBatchEngine(_gsu64(), 64, rng=3)
    engine.run(64 * 50)
    snapshot = engine.snapshot()
    assert snapshot["canonical"][0] == len(engine.table) and snapshot["encoder_tail"] == []
    return snapshot


def test_count_space_restore_keeps_the_strict_layout_check():
    """Count-space engines sample by state id, so a snapshot whose layout
    this table cannot reproduce is refused rather than remapped: here a
    tail that records two closure states under ids past the prefix."""
    snapshot = _closure_count_snapshot()
    states = _gsu64().state_closure()[0]
    snapshot["encoder_tail"] = [states[1], states[0]]
    with pytest.raises(CheckpointError, match="incompatible state-registration"):
        CountBatchEngine(_gsu64(), 64, rng=3).restore(snapshot)


def test_count_space_restore_refuses_states_outside_the_table():
    """A tail state the closure does not hold would leave the count
    kernel's LUT without its pairs, so the restore is refused."""
    from repro.core.state import zero_state

    snapshot = _closure_count_snapshot()
    gamma = _gsu64().params.gamma
    snapshot["encoder_tail"] = [zero_state().evolve(phase=gamma + 1)]
    with pytest.raises(CheckpointError, match="outside the protocol's complete"):
        CountBatchEngine(_gsu64(), 64, rng=3).restore(snapshot)


def test_lazy_layout_count_snapshot_is_refused_on_the_closure_table():
    """A count-batch snapshot of a lazily laid-out GSU19 table (no
    canonical prefix, every state in the tail) cannot continue on the
    closure table every GSU19 table now has: the engine samples by state
    id, so the error names the retired layout instead of remapping the
    ids."""
    snapshot = _closure_count_snapshot()
    snapshot["canonical"] = (0, hashlib.sha256(b"").hexdigest())
    snapshot["encoder_tail"] = list(reversed(_gsu64().state_closure()[0]))
    with pytest.raises(CheckpointError, match="retired lazily discovered state layout"):
        CountBatchEngine(_gsu64(), 64, rng=3).restore(snapshot)


def test_closure_snapshot_references_the_closure_by_digest(tmp_path):
    """A closure-registered countbatch checkpoint stores no encoder states
    and stays under 2 KB, and resumes to the uninterrupted run."""
    from repro.engine.convergence import NeverConverge
    from repro.engine.simulation import run_protocol

    def run(max_parallel_time, **kwargs):
        return run_protocol(
            _closure_gsu(), 4096, seed=31, engine_cls="countbatch",
            convergence=NeverConverge(), check_every=4096,
            max_parallel_time=max_parallel_time, **kwargs,
        )

    path = tmp_path / "closure.ckpt"
    full = run(40.0)
    run(20.0, checkpoint_every=4096, checkpoint_path=path)
    snapshot = read_checkpoint(path)["engine_snapshot"]
    assert snapshot["version"] == 2
    assert snapshot["canonical"][0] == len(_closure_gsu().state_closure()[0]) == 144
    assert snapshot["encoder_tail"] == []
    assert path.stat().st_size < 2048
    resumed = run(40.0, checkpoint_path=path, resume=True)
    assert resumed.interactions == full.interactions
    assert _run_digest(resumed) == _run_digest(full)


def test_restore_rejects_a_different_canonical_prefix():
    engine = CountBatchEngine(_closure_gsu(), 4096, rng=1)
    engine.run(4096)
    snapshot = engine.snapshot()
    count, digest = snapshot["canonical"]
    snapshot["canonical"] = (count, "0" * 64)
    with pytest.raises(CheckpointError, match=f"{'0' * 64}.*{digest}"):
        CountBatchEngine(_closure_gsu(), 4096, rng=1).restore(snapshot)
