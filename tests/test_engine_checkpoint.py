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

import hashlib

import pytest

from test_engine_trajectory_digests import _CHUNKS, ENGINES, EXPECTED, PROTOCOLS

from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.scheduler import PairSampler
from repro.errors import CheckpointError
from repro.experiments.io import read_checkpoint, write_checkpoint
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.slow import SlowLeaderElection

#: The (protocol, engine) grid: every engine family of the acceptance
#: criterion — sequential, fastbatch (C when available), fastbatch-numpy,
#: countbatch — against a lazily discovering protocol (gsu19, where
#: mid-run state discovery makes the encoder layout part of the snapshot)
#: and an eagerly registered one (epidemic).
_PROTOCOL_NAMES = ("epidemic", "gsu19")
_ENGINE_NAMES = ("sequential", "fastbatch", "fastbatch-numpy", "countbatch")


def _digest_update(digest, engine) -> None:
    counts = sorted((repr(s), c) for s, c in engine.state_counts().items())
    digest.update(
        repr((engine.interactions, counts, engine.states_ever_occupied)).encode()
    )


@pytest.mark.parametrize("engine_name", _ENGINE_NAMES)
@pytest.mark.parametrize("protocol_name", _PROTOCOL_NAMES)
@pytest.mark.parametrize("interrupt_after", [1, 2])
def test_interrupted_run_matches_pinned_digest(
    tmp_path, protocol_name, engine_name, interrupt_after
):
    """snapshot → file → restore mid-run reproduces the pinned digest."""
    protocol_factory, n = PROTOCOLS[protocol_name]
    engine_factory = ENGINES[engine_name]
    seed = 20190622

    digest = hashlib.sha256()
    engine = engine_factory(protocol_factory(), n, rng=seed)
    for _ in range(interrupt_after):
        engine.run(2 * n + 3)
        _digest_update(digest, engine)

    # Crash: persist the snapshot, forget everything, restart from disk on
    # a freshly constructed protocol (fresh transition table, fresh caches).
    path = tmp_path / "run.ckpt"
    write_checkpoint(engine.snapshot(), path)
    del engine

    snapshot = read_checkpoint(path)
    resumed = engine_factory(protocol_factory(), n, rng=0xDEAD)  # rng is overwritten
    resumed.restore(snapshot)
    for _ in range(_CHUNKS - interrupt_after):
        resumed.run(2 * n + 3)
        _digest_update(digest, resumed)

    assert digest.hexdigest() == EXPECTED[f"{protocol_name}/{engine_name}"], (
        f"{engine_name} on {protocol_name}: resume after chunk "
        f"{interrupt_after} diverged from the uninterrupted pinned trajectory"
    )


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
    """The unconsumed tail of a pre-drawn pair block survives a snapshot."""
    sampler = PairSampler(64, rng=5, block=32)
    drawn = [sampler.next_pair() for _ in range(17)]  # mid-buffer
    assert drawn
    snapshot = sampler.state_snapshot()
    expected = [sampler.next_pair() for _ in range(40)]  # crosses a refill

    restored = PairSampler(64, rng=999, block=32)
    restored.state_restore(snapshot)
    assert [restored.next_pair() for _ in range(40)] == expected


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


@pytest.mark.parametrize("recorded", ["count", "batch", "nowhere.module:Engine"])
def test_resume_rejects_engine_this_build_does_not_provide(tmp_path, recorded):
    """A checkpoint naming an engine outside the registry (such as the
    retired ``count`` and ``batch`` engines) fails with a CheckpointError
    that names it and the valid engines, not an import error."""
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


def test_adaptive_cadence_resume_is_bit_exact(tmp_path):
    """check_every="auto": the cadence controller (period + census
    signature) rides in the checkpoint and checkpoints are only written at
    checks on the run's natural chunk grid (a budget-clipped final check is
    an artifact of the shorter budget — a longer run never visits that
    configuration), so interrupt+resume reproduces the uninterrupted run
    byte-for-byte even for budget cuts that fall mid-period."""
    from repro.engine.simulation import run_protocol

    def run(max_parallel_time, **kwargs):
        return run_protocol(
            SlowLeaderElection(),
            1024,
            seed=11,
            engine_cls="fastbatch",
            engine_kwargs={"kernel": "numpy"},
            check_every="auto",
            max_parallel_time=max_parallel_time,
            **kwargs,
        )

    full = run(60.0)
    for cut in (10.0, 17.3):  # aligned and deliberately mid-period cuts
        path = tmp_path / f"auto-{cut}.ckpt"
        run(cut, checkpoint_every=1024, checkpoint_path=path)
        resumed = run(60.0, checkpoint_path=path, resume=True)
        assert resumed.converged == full.converged
        assert resumed.interactions == full.interactions
        assert resumed.final_counts == full.final_counts


def test_fixed_cadence_resume_bit_exact_at_clipped_cut(tmp_path):
    """Fixed cadences have the same clipped-final-check hazard as "auto":
    a budget cut that falls off the check grid must not leave a checkpoint
    at the clipped check (the longer run never visits that configuration).
    Pinned with a deliberately mid-period cut."""
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


def test_fixed_cadence_resume_does_not_inherit_auto_controller(tmp_path):
    """Resuming an auto-cadence checkpoint under an explicit fixed cadence
    must not carry the recorded controller into its own checkpoints as
    stale state."""
    from repro.engine.simulation import Simulation, run_protocol

    path = tmp_path / "auto.ckpt"
    run_protocol(
        OneWayEpidemic(),
        64,
        seed=5,
        max_parallel_time=4.0,
        check_every="auto",
        checkpoint_every=16,
        checkpoint_path=path,
    )
    from repro.experiments.io import read_checkpoint

    assert read_checkpoint(path)["auto_cadence"] is not None
    resumed = Simulation.from_checkpoint(
        OneWayEpidemic(), path, check_every=64
    )
    resumed.run(max_parallel_time=6.0)
    assert resumed.checkpoint_payload()["auto_cadence"] is None
