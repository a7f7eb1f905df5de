"""Tests for the compiled count-batch kernel path.

The count kernel (:mod:`repro.engine._count_kernel`) executes whole
collision-free batches per C call on its *own* xoshiro256++ stream, so the
kernel path is equal to the Python path in distribution but not bit-for-bit
— unlike the fast-batch kernel, it cannot share the Python path's
trajectory-digest pins.  This module therefore carries:

* its own pin set (``KERNEL_EXPECTED``) over the same protocol grid as
  ``test_engine_trajectory_digests``, gated on kernel availability,
* checkpoint/resume byte-exactness through the kernel path against those
  pins (the crashed-process-restarts scenario),
* KS / quantile-profile equivalence of the kernel path against the Python
  path on the five cross-engine workloads,
* the width-adaptive count promotion beyond NumPy's 10^9 hypergeometric
  operand cap (the machinery that makes ``n = 10^12`` exact), and
* the trillion-agent acceptance run itself: GSU19 count-space at
  ``n = 10^12`` with a pinned digest and an O(k) memory bound.

Regenerate the kernel pins (after an INTENTIONAL consumption change) with
``python tests/test_engine_count_kernel.py`` on a machine with a C compiler.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from test_engine_equivalence import EXACT_WORKLOADS, convergence_sample
from test_engine_trajectory_digests import (
    _CHUNKS,
    _SEED,
    PROTOCOLS,
    trajectory_digest,
)

from repro.analysis.stats import ks_two_sample, quantile_profile_distance
from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.engine import count_batch
from repro.engine._count_kernel import count_kernel_available, kernel_thread_backend
from repro.engine.count_batch import (
    _NUMPY_HYPERGEOMETRIC_CAP,
    _SURVIVAL_MAX_LEN,
    MAX_EXACT_N,
    CountBatchEngine,
    _hypergeometric_large,
)
from repro.engine.rng import make_rng, spawn_seeds
from repro.errors import ConfigurationError, ProtocolError
from repro.experiments.io import read_checkpoint, write_checkpoint
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic

needs_kernel = pytest.mark.skipif(
    not count_kernel_available(),
    reason="count kernel unavailable (no C compiler, or REPRO_NO_C_KERNEL=1)",
)


def _kernel_engine(protocol, n, rng=None):
    return CountBatchEngine(protocol, n, rng, kernel="c")


def _python_engine(protocol, n, rng=None):
    return CountBatchEngine(protocol, n, rng, kernel="python")


class _CountsOnlyEpidemic(OneWayEpidemic):
    """Epidemic that provides counts directly (no O(n) configuration), so
    the count engines can be constructed at any population size."""

    def initial_counts(self, n):
        return {"informed": self.sources, "susceptible": n - self.sources}


#: The trillion-agent GSU19 instance used by the acceptance test: the
#: calibration is the tiny one (the real ``from_population_size(10**12)``
#: closure BFS takes ~a minute; the engine mechanics under test — survival
#: curve cap, count promotion, kernel batching — depend only on ``n``).
def _gsu19_extreme():
    return GSULeaderElection(GSUParams(n_hint=10**12, gamma=4, phi=1, psi=1))


# ----------------------------------------------------------------------
# Kernel-path trajectory pins
# ----------------------------------------------------------------------

#: The kernel path's own seed-stability pins (same digest construction as
#: ``test_engine_trajectory_digests``, kernel="c").  Platform-stable: the
#: xoshiro256++/SplitMix64 streams and the exact hypergeometric samplers
#: are fully specified in the kernel source.
KERNEL_EXPECTED = {
    "epidemic": "771371952a8e57ef584ddf5c54dbb142ea0804d9656a3ded4f912cccb31c3f8f",
    "exact-majority": "caef06e793960814f185c5d6f9149e3149a53a2086c58c0aa1f48eb5dfcd6941",
    "gs18": "87ae6711fa9b4c4c410870e6bce14ad63aa600ac8d6615bd0c2f77fdf2b52d43",
    "gsu19": "3c00abc7c572382b1388e25be2e314e62794548b6a3a40ea12179b65428c3e6b",
    "gsu19-closure": "bd53465ae75d0f4766ec4d7738fdfacda8e6c1c5d1236da05567d02f78047372",
    "lottery": "a603097966fbe78f7d296032310db39aadce90a3bcb0748b6592938a4454ecb0",
    "majority": "78f8a0d07f5ccad3c83bff2989afbbba3addb64299eeba9102ae889e5d70bab2",
    "slow-le": "8ad9f98bf4150694c031a9533ed0c67e613f599fa7c4c2d2ad399eef98e40490",
}

#: GSU19 at n = 10^12 (tiny calibration above), seed ``_SEED``, three
#: chunks of 2,000,000 interactions: the acceptance digest for the extreme
#: tier.  Pinned from a run whose peak RSS was measured at 294 MiB.
_EXTREME_DIGEST = "fe33266bed0714de5d682ecda00945b0f8a456478740c8da75290eb93706ae55"
_EXTREME_CHUNK = 2_000_000

#: Pins in the benchmark's regime, where the grid above (<= 256 agents for
#: ~6n interactions) never reaches: participant-split operands up to n, a
#: frontier of dozens of states, and lazily compiled rows missing mid-row.
#: GSU19 at its production calibration with the closure registered,
#: n = 20,000, five chunks of 200,000 interactions (the frontier holds 38,
#: 60, 65, 87 and 70 states after them).
_PRODUCTION_CLOSURE_DIGEST = (
    "b21f363a2b1d1a99cec2e1606821d5a696762cb216e8e79843e10b4a6203f1ae"
)
#: Lazily compiled ``for_population(2000)``, one run of 200,000
#: interactions: 11,278 LUT misses, each a kernel rollback and re-entry.
_LAZY_MISS_DIGEST = "b17e330646a9bedfcbe233d79d9479671387c2b69d06c0fed1219e10de7e0f41"
_LAZY_MISS_PAIRS = 11_278


@needs_kernel
@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_kernel_trajectory_digest_is_pinned(protocol_name):
    factory, n = PROTOCOLS[protocol_name]
    observed = trajectory_digest(_kernel_engine, factory, n)
    assert observed == KERNEL_EXPECTED[protocol_name], (
        f"count kernel changed its randomness consumption on "
        f"{protocol_name}: digest {observed} != pinned "
        f"{KERNEL_EXPECTED[protocol_name]}. If the change is intentional, "
        "regenerate the pins (see module docstring)."
    )


@needs_kernel
def test_kernel_pins_differ_from_python_pins():
    """The two paths consume different streams by design; identical pins
    would mean the kernel silently fell back to the Python path."""
    from test_engine_trajectory_digests import EXPECTED

    for protocol_name in PROTOCOLS:
        assert KERNEL_EXPECTED[protocol_name] != EXPECTED[f"{protocol_name}/countbatch"]


@needs_kernel
def test_auto_uses_kernel_when_available():
    """kernel="auto" must take the compiled path on kernel machines — its
    digest matches the kernel pins, not the Python-path pins."""
    factory, n = PROTOCOLS["epidemic"]
    observed = trajectory_digest(CountBatchEngine, factory, n)
    assert observed == KERNEL_EXPECTED["epidemic"]


# ----------------------------------------------------------------------
# Checkpoint/resume byte-exactness through the kernel path
# ----------------------------------------------------------------------
def _digest_update(digest, engine) -> None:
    counts = sorted((repr(s), c) for s, c in engine.state_counts().items())
    digest.update(
        repr((engine.interactions, counts, engine.states_ever_occupied)).encode()
    )


@needs_kernel
@pytest.mark.parametrize("protocol_name", ("epidemic", "gsu19"))
@pytest.mark.parametrize("interrupt_after", [1, 2])
def test_kernel_interrupted_run_matches_pinned_digest(
    tmp_path, protocol_name, interrupt_after
):
    """snapshot → file → restore mid-run reproduces the kernel pin: the
    xoshiro256++ words ride in the checkpoint alongside the NumPy stream."""
    protocol_factory, n = PROTOCOLS[protocol_name]

    digest = hashlib.sha256()
    engine = _kernel_engine(protocol_factory(), n, rng=_SEED)
    for _ in range(interrupt_after):
        engine.run(2 * n + 3)
        _digest_update(digest, engine)

    path = tmp_path / "run.ckpt"
    write_checkpoint(engine.snapshot(), path)
    del engine

    snapshot = read_checkpoint(path)
    resumed = _kernel_engine(protocol_factory(), n, rng=0xDEAD)  # overwritten
    resumed.restore(snapshot)
    for _ in range(_CHUNKS - interrupt_after):
        resumed.run(2 * n + 3)
        _digest_update(digest, resumed)

    assert digest.hexdigest() == KERNEL_EXPECTED[protocol_name], (
        f"kernel path on {protocol_name}: resume after chunk "
        f"{interrupt_after} diverged from the uninterrupted pinned trajectory"
    )


@needs_kernel
def test_kernel_pinned_at_production_calibration():
    protocol = GSULeaderElection(GSUParams(n_hint=10**8, gamma=24, phi=1, psi=3))
    engine = _kernel_engine(protocol, 20_000, rng=_SEED)
    digest = hashlib.sha256()
    for _ in range(5):
        engine.run(200_000)
        _digest_update(digest, engine)
    assert engine.table.compiled_pairs == 0
    assert digest.hexdigest() == _PRODUCTION_CLOSURE_DIGEST


@needs_kernel
def test_kernel_pinned_through_lazy_misses():
    engine = _kernel_engine(GSULeaderElection.for_population(2000), 2000, rng=_SEED)
    engine.run(200_000)
    digest = hashlib.sha256()
    _digest_update(digest, engine)
    assert engine.table.compiled_pairs == _LAZY_MISS_PAIRS
    assert digest.hexdigest() == _LAZY_MISS_DIGEST


@needs_kernel
def test_python_checkpoint_resumes_on_python_path(tmp_path):
    """A Python-path checkpoint restored into a kernel-capable engine must
    continue the *recorded* stream — i.e. downgrade to the Python path —
    and reproduce the shared countbatch pin byte-for-byte."""
    from test_engine_trajectory_digests import EXPECTED

    protocol_factory, n = PROTOCOLS["epidemic"]
    digest = hashlib.sha256()
    engine = _python_engine(protocol_factory(), n, rng=_SEED)
    engine.run(2 * n + 3)
    _digest_update(digest, engine)

    path = tmp_path / "python.ckpt"
    write_checkpoint(engine.snapshot(), path)
    resumed = CountBatchEngine(protocol_factory(), n, rng=0xDEAD, kernel="auto")
    resumed.restore(read_checkpoint(path))
    assert resumed._kernel is None  # downgraded: no kernel_rng in payload
    for _ in range(_CHUNKS - 1):
        resumed.run(2 * n + 3)
        _digest_update(digest, resumed)
    assert digest.hexdigest() == EXPECTED["epidemic/countbatch"]


# ----------------------------------------------------------------------
# Distributional equivalence: kernel path vs Python path
# ----------------------------------------------------------------------

#: Disjoint seed ranges (offsets past the ones test_engine_equivalence
#: uses, so no sample is ever compared against itself).
_KERNEL_SEED_BASE = 900_000
_PYTHON_SEED_BASE = 1_000_000

#: Same per-workload loosening as the cross-engine sanity check: the
#: closure-registered gamma=4 clock has a much wider convergence-time
#: spread at this sample size.
_QUANTILE_BOUNDS = {"gsu19-closure": 3.0}


@needs_kernel
@pytest.mark.parametrize("workload", sorted(EXACT_WORKLOADS))
def test_kernel_agrees_with_python_on_quantile_profiles(workload):
    n, repetitions = 64, 24
    kernel_sample = convergence_sample(
        _kernel_engine, workload, n,
        range(_KERNEL_SEED_BASE, _KERNEL_SEED_BASE + repetitions),
    )
    python_sample = convergence_sample(
        _python_engine, workload, n,
        range(_PYTHON_SEED_BASE, _PYTHON_SEED_BASE + repetitions),
    )
    bound = _QUANTILE_BOUNDS.get(workload, 1.5)
    assert quantile_profile_distance(python_sample, kernel_sample) < bound, (
        f"kernel-path convergence-time quantiles drifted from the Python "
        f"path on {workload}"
    )


@needs_kernel
@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(EXACT_WORKLOADS))
def test_kernel_vs_python_ks_equivalence(workload):
    """Two-sample KS over 80 seeds per path at n=128.  Like the cross-engine
    suite, the fixed seed ranges were checked to land comfortably above the
    0.01 threshold, so the assertion is deterministic, not flaky."""
    n, repetitions = 128, 80
    kernel_sample = convergence_sample(
        _kernel_engine, workload, n,
        range(_KERNEL_SEED_BASE, _KERNEL_SEED_BASE + repetitions),
    )
    python_sample = convergence_sample(
        _python_engine, workload, n,
        range(_PYTHON_SEED_BASE, _PYTHON_SEED_BASE + repetitions),
    )
    outcome = ks_two_sample(kernel_sample, python_sample)
    assert outcome.pvalue > 0.01, (
        f"kernel vs python on {workload}: KS statistic "
        f"{outcome.statistic:.3f}, p={outcome.pvalue:.4f}"
    )
    assert quantile_profile_distance(kernel_sample, python_sample) < 1.0


# ----------------------------------------------------------------------
# Kernel-path engine invariants
# ----------------------------------------------------------------------
@needs_kernel
def test_kernel_tiny_populations_are_exact_edges():
    # n=2: every batch is the single forced pair.
    engine = _kernel_engine(OneWayEpidemic(), 2, rng=0)
    engine.run(1)
    assert engine.interactions == 1
    assert sum(engine.state_counts().values()) == 2
    # n=3: the epidemic must still saturate.
    engine = _kernel_engine(OneWayEpidemic(), 3, rng=0)
    engine.run(60)
    assert engine.count_of("susceptible") == 0


@needs_kernel
def test_kernel_interaction_accounting_is_exact():
    engine = _kernel_engine(OneWayEpidemic(), 1000, rng=1)
    engine.step()
    assert engine.interactions == 1
    engine.run(7)
    assert engine.interactions == 8
    engine.run(12_344)
    assert engine.interactions == 12_352


@needs_kernel
def test_kernel_population_conserved_with_lazy_discovery():
    """GSU19's lazily discovered states force mid-run LUT misses: the
    kernel must roll the batch back, let Python compile the pair, and
    resume without losing or duplicating agents."""
    n = 256
    engine = _kernel_engine(GSULeaderElection.for_population(n), n, rng=7)
    for _ in range(10):
        engine.run(4 * n)
        counts = engine.state_counts()
        assert all(count > 0 for count in counts.values())
        assert sum(counts.values()) == n
    assert engine.states_ever_occupied > 10


@needs_kernel
def test_closure_engines_share_one_lut_and_one_kernel_call_per_run():
    """32 GSU19 engines at n = 10^6 over the K = 1,789 closure, each on its
    own protocol instance, share one read-only packed LUT and compile no
    pair; a run of n interactions never misses, so it is one kernel call."""
    n = 10**6
    seeds = spawn_seeds(777, 32)
    table = None
    calls = []
    for seed in seeds:
        engine = _kernel_engine(GSULeaderElection.for_population(5 * 10**7), n, rng=seed)
        if table is None:
            table = engine.table
            assert not table.packed.flags.writeable
            assert table.packed.size == len(table) ** 2 == 1789**2
        assert engine.table.packed.base is table.packed.base
        kernel = engine._kernel
        engine._kernel = lambda *args: calls.append(None) or kernel(*args)
        engine.run(n)
        assert engine.interactions == n
        assert engine.table.compiled_pairs == 0
    assert len(calls) == len(seeds)


@needs_kernel
def test_logfact_reserve_holds_the_gil():
    """The log-factorial heap the kernel reads is grown only through a
    ``PyDLL`` binding, whose calls hold the GIL; the row kernel is a
    ``CDLL`` call, which releases it."""
    import ctypes

    from repro.engine import _count_kernel

    assert _count_kernel._logfact_reserve._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    assert not _count_kernel._kernel._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_kernel_thread_backend_is_serial():
    # Run stamps record it; the kernel has no threads of its own.
    expected = "serial" if count_kernel_available() else None
    assert kernel_thread_backend() == expected


@needs_kernel
def test_kernel_same_seed_reproducible():
    a = _kernel_engine(ApproximateMajority(initial_a_fraction=0.6), 5000, rng=11)
    b = _kernel_engine(ApproximateMajority(initial_a_fraction=0.6), 5000, rng=11)
    a.run(20_000)
    b.run(20_000)
    assert a.state_counts() == b.state_counts()
    assert a.interactions == b.interactions


def test_kernel_c_refused_when_unavailable(monkeypatch):
    monkeypatch.setattr(count_batch, "load_count_kernel", lambda: None)
    with pytest.raises(ConfigurationError, match="count kernel"):
        CountBatchEngine(OneWayEpidemic(), 100, rng=0, kernel="c")
    # "auto" falls back to the Python path silently.
    engine = CountBatchEngine(OneWayEpidemic(), 100, rng=0, kernel="auto")
    assert engine._kernel is None
    engine.run(50)
    assert sum(engine.state_counts().values()) == 100


def test_kernel_argument_is_validated():
    with pytest.raises(ConfigurationError, match="kernel"):
        CountBatchEngine(OneWayEpidemic(), 100, rng=0, kernel="fortran")


# ----------------------------------------------------------------------
# Count-space hot-path bugfixes: pair-matrix marginals, survival bounds,
# width-adaptive count promotion
# ----------------------------------------------------------------------
def test_pair_matrix_marginals_are_exact():
    """Regression for the last-responder-row aliasing fix: the pairing
    contingency cells must reproduce both marginals exactly — the responder
    marginal from the responder split and the initiator marginal from the
    remaining pool (which the final row must *copy*, not alias, so later
    buffer reuse cannot corrupt the recorded cells)."""
    engine = _python_engine(ApproximateMajority(initial_a_fraction=0.5), 4096, rng=3)
    engine.run(2_000)  # occupy all three states
    draws = []
    original = CountBatchEngine._multivariate_hypergeometric

    def recording(self, colors, nsample, total):
        out = original(self, colors, nsample, total)
        draws.append(out.copy())
        return out

    engine._multivariate_hypergeometric = recording.__get__(engine)
    pairs = 24
    involved, pair_r, pair_i, pair_m = engine._pair_matrix(pairs)
    responders = draws[1]  # draw 0 = involved, draw 1 = responder split
    assert sum(pair_m) == pairs
    size = involved.shape[0]
    responder_marginal = np.zeros(size, dtype=np.int64)
    initiator_marginal = np.zeros(size, dtype=np.int64)
    for a, b, m in zip(pair_r, pair_i, pair_m):
        responder_marginal[a] += m
        initiator_marginal[b] += m
    assert np.array_equal(responder_marginal, responders)
    assert np.array_equal(initiator_marginal, involved - responders)


def test_rejects_population_beyond_exactness_bound():
    with pytest.raises(ProtocolError, match="2\\^53"):
        CountBatchEngine(_CountsOnlyEpidemic(), MAX_EXACT_N + 2, rng=0)
    # The bound itself is inclusive.
    engine = CountBatchEngine(_CountsOnlyEpidemic(), MAX_EXACT_N, rng=0, kernel="python")
    assert sum(count for _, count in engine.state_count_items()) == MAX_EXACT_N


def test_survival_curve_is_capped_and_finite_at_extreme_n():
    """At n = 10^12 the 8.5*sqrt(n) span would pass the 2^23 cap; the
    curve must clamp there, stay a valid survival function, and keep its
    head exact (the log1p form does not lose integer precision)."""
    engine = CountBatchEngine(_CountsOnlyEpidemic(), 10**12, rng=0, kernel="python")
    assert engine._jmax == _SURVIVAL_MAX_LEN
    survival = -engine._neg_survival
    assert survival.shape[0] == _SURVIVAL_MAX_LEN
    assert survival[0] == pytest.approx(1.0)
    assert np.all(np.diff(survival) <= 0)
    assert np.isfinite(survival).all()
    n = 10**12
    assert survival[1] == pytest.approx((n - 2) * (n - 3) / (n * (n - 1)))


def test_hypergeometric_checked_routes_below_cap_to_numpy():
    """Below the 10^9 operand cap the checked entry point must consume the
    exact NumPy stream (digest-pin compatibility)."""
    engine = CountBatchEngine(_CountsOnlyEpidemic(), 10**10, rng=123, kernel="python")
    assert engine._hyper == engine._hypergeometric_checked
    reference = make_rng(123)
    # The engine construction consumed no draws, so the streams align.
    assert engine._hypergeometric_checked(500, 700, 300) == reference.hypergeometric(
        500, 700, 300
    )


def test_hypergeometric_large_is_exact_in_mean_and_support():
    """The pure-Python promotion sampler (HRUA + urn inversion) at operands
    NumPy refuses: support bounds always, mean to ~4 sigma."""
    rng = make_rng(7)
    good, bad, sample = 3 * 10**9, 7 * 10**9, 10**6
    total = good + bad
    trials = 400
    values = [_hypergeometric_large(rng, good, bad, sample) for _ in range(trials)]
    assert all(0 <= v <= sample for v in values)
    mean = sample * good / total
    var = sample * (good / total) * (bad / total) * (total - sample) / (total - 1)
    sigma = (var / trials) ** 0.5
    assert abs(np.mean(values) - mean) < 4 * sigma
    # The urn-inversion branch (symmetrised sample < 10): tiny draws from
    # a 10^12 pool.
    small = [_hypergeometric_large(rng, 6 * 10**11, 4 * 10**11, 5) for _ in range(2000)]
    assert all(0 <= v <= 5 for v in small)
    assert abs(np.mean(small) - 3.0) < 0.15
    # Degenerate pools short-circuit without consuming randomness.
    assert _hypergeometric_large(rng, 0, 10**10, 5) == 0
    assert _hypergeometric_large(rng, 10**10, 0, 5) == 5


def test_multivariate_hypergeometric_promotes_past_numpy_total_cap():
    """A draw whose total reaches 10^9 cannot use NumPy's vectorised
    marginals sampler; the scalar sequential-conditional walk (with
    width-checked draws) must take over and stay exact."""
    engine = CountBatchEngine(_CountsOnlyEpidemic(), 10**10, rng=5, kernel="python")
    # 20 occupied states (past the scalar-walk threshold, so the vectorised
    # branch *would* be chosen) with a total past the NumPy cap.
    colors = np.zeros(20, dtype=np.int64)
    colors[::2] = 10**9
    colors[1::2] = 1
    total = int(colors.sum())
    draw = engine._multivariate_hypergeometric(colors, 10_000, total)
    assert draw.sum() == 10_000
    assert np.all(draw >= 0)
    assert np.all(draw <= colors)
    # The even (huge) states hold virtually all the mass.
    assert draw[::2].sum() >= 9_990


# ----------------------------------------------------------------------
# The trillion-agent acceptance run
# ----------------------------------------------------------------------
@needs_kernel
def test_gsu19_count_space_at_1e12_is_pinned_and_small():
    """GSU19 count-space at n = 10^12 through the kernel: the digest is
    pinned (reproducible across machines) and the engine-resident memory
    stays far below the 1 GiB acceptance bound — the survival curve's
    2^23-entry cap (64 MiB) dominates."""
    engine = _kernel_engine(_gsu19_extreme(), 10**12, rng=_SEED)
    digest = hashlib.sha256()
    for _ in range(_CHUNKS):
        engine.run(_EXTREME_CHUNK)
        _digest_update(digest, engine)
    assert digest.hexdigest() == _EXTREME_DIGEST, (
        "the extreme-tier trajectory diverged from the pinned digest; "
        "if the consumption change is intentional, regenerate the pin "
        "(see module docstring)"
    )
    assert sum(engine.state_counts().values()) == 10**12
    resident = (
        engine._neg_survival.nbytes
        + engine._counts.nbytes
        + engine._scratch.nbytes
        + engine._seen_mask.nbytes
        + engine.table.packed.nbytes
    )
    assert resident < 1 << 30, f"engine-resident memory {resident} >= 1 GiB"
    # O(k), not O(n): the dominant term is the capped survival curve.
    assert engine._neg_survival.nbytes == _SURVIVAL_MAX_LEN * 8


if __name__ == "__main__":  # pragma: no cover - pin regeneration helper
    for name, (factory, population) in sorted(PROTOCOLS.items()):
        value = trajectory_digest(_kernel_engine, factory, population)
        print(f'    "{name}": "{value}",')
