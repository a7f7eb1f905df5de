"""Accuracy harness for the approximate tier (tau-leap + mean-field).

The approximate engines implement *deliberately different* models from the
sequential scheduler — frozen-probability binomial leaps
(:class:`~repro.engine.tauleap.TauLeapEngine`) and the deterministic fluid
limit (:class:`~repro.engine.meanfield.MeanFieldEngine`) — so unlike the
exact cross-engine suite this one asserts agreement *within documented
tolerances*, with the exact engines as ground truth.  The comparator
machinery is shared with the exact suite
(:mod:`repro.analysis.accuracy`).

Accuracy contract (the concrete numbers asserted below):

* **tau-leap** — on every workload, two-sample KS agreement with the
  sequential engine at matched ``n`` on (a) convergence times and (b) the
  mid-dynamics census statistic, at ``p > 0.01`` (the exact-tier
  threshold; measured p-values sit at 0.1–1.0), plus quantile-profile
  distance below the per-workload bounds in :data:`_TAULEAP_QUANTILE_BOUNDS`.
* **mean-field** — on every workload, the worst gap between the exact
  seed-averaged occupancy curve and the fluid-limit curve stays below the
  per-workload constants in :data:`_MEANFIELD_BAND` in ``sqrt(n)`` units
  (the natural scale of finite-``n`` fluctuations).  Workloads with
  macroscopic initial fractions sit at 0.1–0.7; the single-seeded
  epidemic's takeoff-timing jitter inflates its constant (the fluid limit
  starts from fraction ``1/n``, whose exponential-phase delay does not
  average out), which is documented rather than hidden.

Wiring invariants also live here: both engines resolve by name, are never
chosen by ``auto``, round-trip checkpoints bit-exactly, and the
unknown-engine error enumerates every valid name (the satellite
regression).  Fast smoke versions run in tier-1; the full five-workload
sweeps are ``slow``-marked (weekly suite).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis.accuracy import (
    WORKLOADS,
    census_sample,
    convergence_sample,
    max_band_deviation,
    mean_occupancy,
)
from repro.analysis.stats import ks_two_sample, quantile_profile_distance
from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.engine.convergence import AllAgentsSatisfy
from repro.engine.dispatch import (
    ENGINE_NAMES,
    auto_engine,
    canonical_name,
    resolve_engine,
)
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.engine.meanfield import MeanFieldEngine
from repro.engine.simulation import run_protocol
from repro.engine.tauleap import TauLeapEngine
from repro.errors import ConfigurationError
from repro.protocols.epidemic import OneWayEpidemic

#: The five approximate-tier acceptance workloads (ISSUE 9).
APPROX_WORKLOADS = ("epidemic", "exact-majority", "gsu19", "gs18", "lottery")

#: Tau-leap vs sequential quantile-profile bounds for convergence times.
#: Measured distances sit at 0.16–0.47 except the lottery, whose
#: convergence-time distribution is so heavy-tailed that the pooled-IQR
#: normalisation makes the metric noisy even between exact engines — its
#: agreement is carried by the KS test instead.
_TAULEAP_QUANTILE_BOUNDS = {
    "epidemic": 1.0,
    "exact-majority": 1.5,
    "gsu19": 1.5,
    "gs18": 1.0,
    "lottery": 8.0,
}

#: Mean-field occupancy band constants, in sqrt(n) units (see module
#: docstring; measured deviations in parentheses): epidemic 6.0 (~2–4),
#: exact-majority 0.5 (~0.10), gsu19 1.5 (~0.63), gs18 1.0 (~0.22),
#: lottery 1.5 (~0.67).
_MEANFIELD_BAND = {
    "epidemic": 6.0,
    "exact-majority": 0.5,
    "gsu19": 1.5,
    "gs18": 1.0,
    "lottery": 1.5,
}

#: Occupancy sampling points (parallel time) for the mean-field band.
_BAND_TIMES = (0.5, 1.0, 2.0, 4.0, 8.0)

#: Disjoint seed ranges (same convention as the exact equivalence suite).
_SEED_STRIDE = 100_000


def _lazy_gsu19(n: int) -> GSULeaderElection:
    """GSU19 at the calibration of ``n`` but without the closure BFS.

    ``for_population(n)`` at count-batch scale pre-registers the reachable
    closure (a ~1 s BFS amortised against count-space runs); the fluid
    limit discovers its active states lazily in milliseconds, so the
    scaling-speed test derives the (gamma, phi, psi) calibration from
    ``n`` and pins ``n_hint`` below the closure gate.
    """
    params = GSUParams.from_population_size(n)
    return GSULeaderElection(
        GSUParams(
            n_hint=1000, gamma=params.gamma, phi=params.phi, psi=params.psi
        )
    )


# ----------------------------------------------------------------------
# Wiring: dispatch, auto-exclusion, error enumeration
# ----------------------------------------------------------------------
def test_approx_engines_resolve_by_name():
    assert resolve_engine("tauleap") is TauLeapEngine
    assert resolve_engine("meanfield") is MeanFieldEngine
    assert canonical_name(TauLeapEngine) == "tauleap"
    assert canonical_name(MeanFieldEngine) == "meanfield"
    assert "tauleap" in ENGINE_NAMES and "meanfield" in ENGINE_NAMES


def test_approx_engines_declare_inexactness():
    assert TauLeapEngine.exact is False
    assert MeanFieldEngine.exact is False


def test_auto_never_selects_an_approximate_engine():
    """``auto`` is an exact-tier policy: approximate engines are an
    explicit opt-in, so no dispatch path may silently downgrade a
    correctness claim."""
    for n in (2, 64, 10_000, 5_000_000, 10**8):
        chosen = auto_engine(OneWayEpidemic(), n)
        assert chosen.exact, f"auto picked inexact {chosen.__name__} at n={n}"


def test_unknown_engine_error_enumerates_names_and_suggests():
    """Regression (ISSUE 9 satellite): a typo like 'countbach' must name
    every valid engine and offer a did-you-mean hint."""
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_engine("countbach")
    message = str(excinfo.value)
    for name in ENGINE_NAMES:
        assert f"'{name}'" in message
    assert "did you mean 'countbatch'?" in message


def test_unknown_engine_error_without_a_close_match():
    with pytest.raises(ConfigurationError) as excinfo:
        resolve_engine("zeppelin")
    message = str(excinfo.value)
    assert "did you mean" not in message
    assert "'tauleap'" in message and "'meanfield'" in message


def test_run_protocol_accepts_approx_engines_by_name():
    result = run_protocol(
        OneWayEpidemic(),
        64,
        seed=5,
        engine_cls="tauleap",
        convergence=AllAgentsSatisfy(lambda s: s == "informed", "informed"),
        max_parallel_time=400,
    )
    assert result.converged
    result = run_protocol(
        OneWayEpidemic(),
        64,
        seed=5,
        engine_cls="meanfield",
        max_parallel_time=4,
    )
    assert result.parallel_time == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Checkpoint / determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", [TauLeapEngine, MeanFieldEngine])
def test_snapshot_roundtrip_is_bit_exact(engine_cls):
    n = 200
    engine = engine_cls(OneWayEpidemic(), n, rng=9)
    engine.run(3 * n)
    snapshot = engine.snapshot()
    engine.run(5 * n)
    resumed = engine_cls(OneWayEpidemic(), n, rng=9)
    resumed.restore(snapshot)
    resumed.run(5 * n)
    assert np.array_equal(engine.count_vector(), resumed.count_vector())
    assert engine.interactions == resumed.interactions
    assert engine.states_ever_occupied == resumed.states_ever_occupied


# ----------------------------------------------------------------------
# Tier-1 accuracy smoke (few seeds, the epidemic workload)
# ----------------------------------------------------------------------
def test_tauleap_convergence_quantiles_match_sequential_smoke():
    reference = convergence_sample(SequentialEngine, "epidemic", 64, range(24))
    leaped = convergence_sample(
        TauLeapEngine, "epidemic", 64, range(_SEED_STRIDE, _SEED_STRIDE + 24)
    )
    assert quantile_profile_distance(reference, leaped) < 1.0


def test_tauleap_census_matches_sequential_smoke():
    reference = census_sample(SequentialEngine, "epidemic", 128, range(30))
    leaped = census_sample(
        TauLeapEngine, "epidemic", 128, range(_SEED_STRIDE, _SEED_STRIDE + 30)
    )
    outcome = ks_two_sample(reference, leaped)
    assert outcome.pvalue > 0.01, (
        f"tau-leap epidemic census drifted: D={outcome.statistic:.3f}, "
        f"p={outcome.pvalue:.4f}"
    )


def test_meanfield_band_epidemic_smoke():
    n = 256
    exact = mean_occupancy(FastBatchEngine, "epidemic", n, range(24), _BAND_TIMES)
    fluid = mean_occupancy(MeanFieldEngine, "epidemic", n, [0], _BAND_TIMES)
    deviation = max_band_deviation(exact, fluid, n)
    assert deviation < _MEANFIELD_BAND["epidemic"], (
        f"mean-field epidemic occupancy left the band: {deviation:.2f} sqrt(n)"
    )


def test_meanfield_conserves_mass_and_counts_sum_to_n():
    n = 977  # prime, so largest-remainder rounding actually distributes
    engine = MeanFieldEngine(OneWayEpidemic(), n)
    for _ in range(6):
        engine.run_parallel_time(2.0)
        counts = engine.count_vector()
        assert counts.sum() == n
        assert (counts >= 0).all()
        assert engine.expected_counts().sum() == pytest.approx(n, rel=1e-9)


def test_meanfield_channel_cache_stays_within_its_byte_budget(monkeypatch):
    """The channel cache is bounded in bytes: lazily compiling Lottery walks
    through 100+ active sets, and with a 64 KiB budget the cached arrays
    and keys never exceed it.  The cache only saves work, so the bounded
    engine's trajectory is bit-identical to the default one's."""
    from repro.engine import meanfield
    from repro.protocols.lottery import LotteryLeaderElection

    n = 256
    reference = MeanFieldEngine(LotteryLeaderElection.for_population(n), n)
    trajectory = []
    for _ in range(20):
        reference.run(2 * n)
        trajectory.append(reference.expected_counts())
    budget = 1 << 16
    monkeypatch.setattr(meanfield, "_CHANNEL_CACHE_BYTES", budget)
    bounded = MeanFieldEngine(LotteryLeaderElection.for_population(n), n)
    for expected in trajectory:
        bounded.run(2 * n)
        cached = sum(
            len(key) + sum(array.nbytes for array in structure)
            for key, structure in bounded._channels.items()
        )
        assert 0 < cached <= budget
        np.testing.assert_array_equal(bounded.expected_counts(), expected)


# ----------------------------------------------------------------------
# The full five-workload sweeps (weekly slow suite)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("workload", APPROX_WORKLOADS)
def test_tauleap_ks_accuracy_full(workload):
    """Tau-leap vs sequential over 40 seeds at n = 128: KS agreement on
    convergence times *and* the mid-dynamics census, plus the documented
    quantile-profile bound."""
    n = 128
    reference = convergence_sample(SequentialEngine, workload, n, range(40))
    leaped = convergence_sample(
        TauLeapEngine, workload, n, range(_SEED_STRIDE, _SEED_STRIDE + 40)
    )
    outcome = ks_two_sample(reference, leaped)
    assert outcome.pvalue > 0.01, (
        f"tau-leap convergence times drifted on {workload}: "
        f"D={outcome.statistic:.3f}, p={outcome.pvalue:.4f}"
    )
    assert (
        quantile_profile_distance(reference, leaped)
        < _TAULEAP_QUANTILE_BOUNDS[workload]
    )
    ref_census = census_sample(SequentialEngine, workload, n, range(30))
    leap_census = census_sample(
        TauLeapEngine, workload, n, range(_SEED_STRIDE, _SEED_STRIDE + 30)
    )
    outcome = ks_two_sample(ref_census, leap_census)
    assert outcome.pvalue > 0.01, (
        f"tau-leap census drifted on {workload}: "
        f"D={outcome.statistic:.3f}, p={outcome.pvalue:.4f}"
    )


@pytest.mark.slow
@pytest.mark.parametrize("workload", APPROX_WORKLOADS)
def test_meanfield_band_full(workload):
    """Mean-field occupancy curves vs the exact seed-averaged curves at
    n = 256, within the documented per-workload sqrt(n) band."""
    n = 256
    exact = mean_occupancy(FastBatchEngine, workload, n, range(40), _BAND_TIMES)
    fluid = mean_occupancy(MeanFieldEngine, workload, n, [0], _BAND_TIMES)
    deviation = max_band_deviation(exact, fluid, n)
    assert deviation < _MEANFIELD_BAND[workload], (
        f"mean-field occupancy left the band on {workload}: "
        f"{deviation:.2f} sqrt(n) (bound {_MEANFIELD_BAND[workload]})"
    )


@pytest.mark.slow
def test_meanfield_gsu19_scaling_curve_under_a_second_per_point():
    """The acceptance criterion that motivates the fluid tier: a GSU19
    scaling curve to n = 10^12 at < 1 s per point (construction included).
    Each point integrates 60 parallel-time units — past the dueling phase,
    where the expected leader fraction has stabilised."""
    for exponent in (6, 8, 10, 12):
        n = 10**exponent
        start = time.perf_counter()
        engine = MeanFieldEngine(_lazy_gsu19(n), n)
        engine.run_parallel_time(60.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, (
            f"mean-field GSU19 point at n=1e{exponent} took {elapsed:.2f}s"
        )
        assert engine.count_vector().sum() == n
        assert engine.leader_count() > 0
