"""Cross-engine comparison workloads and the convergence-time sampler.

The exact engines implement the same probabilistic model with different
data structures, so any run statistic must agree across them **in
distribution** — that is ``tests/test_engine_equivalence.py``.  This module
standardises *what* is sampled so every engine is compared like with like:

* :data:`WORKLOADS` — named workloads (protocol factory, convergence
  predicate, budget),
* :func:`convergence_sample` — convergence times over a seed range.

Statistical comparisons themselves come from :mod:`repro.analysis.stats`
(:func:`~repro.analysis.stats.ks_two_sample`,
:func:`~repro.analysis.stats.quantile_profile_distance`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Type

from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.engine.base import BaseEngine
from repro.engine.protocol import PopulationProtocol
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.exact_majority import ExactMajority

__all__ = ["Workload", "WORKLOADS", "convergence_sample"]


def _epidemic_done(engine: BaseEngine) -> bool:
    return OneWayEpidemic.fully_informed(engine.state_counts())


def _majority_done(engine: BaseEngine) -> bool:
    counts = engine.state_counts()
    if counts.get("blank", 0) > 0:
        return False
    return counts.get("A", 0) == 0 or counts.get("B", 0) == 0


def _single_leader(engine: BaseEngine) -> bool:
    return engine.leader_count() == 1


def _exact_majority_done(engine: BaseEngine) -> bool:
    return engine.counts_by_output().get("B", 0) == 0


@dataclass(frozen=True)
class Workload:
    """One named workload for cross-engine comparison.

    ``factory(n)`` builds a fresh protocol instance (fresh instances
    matter: the compiled table caches per instance, and engines sharing an
    instance would also share identifier-discovery history).
    """

    factory: Callable[[int], PopulationProtocol]
    predicate: Callable[[BaseEngine], bool]
    budget: float  # convergence budget, parallel-time units


#: Named workloads, all count-capable ("gsu19-closure" registers the
#: reachable closure so identifier layout comes from the BFS instead of
#: lazy discovery).
WORKLOADS: Dict[str, Workload] = {
    "epidemic": Workload(lambda n: OneWayEpidemic(), _epidemic_done, 400),
    "exact-majority": Workload(
        lambda n: ExactMajority.for_population(n, a_fraction=0.6),
        _exact_majority_done,
        800,
    ),
    "majority": Workload(
        lambda n: ApproximateMajority(initial_a_fraction=0.7),
        _majority_done,
        400,
    ),
    "gsu19": Workload(
        lambda n: GSULeaderElection.for_population(n), _single_leader, 4000
    ),
    "gsu19-closure": Workload(
        lambda n: GSULeaderElection(
            GSUParams(n_hint=10**8, gamma=4, phi=1, psi=1)
        ),
        _single_leader,
        4000,
    ),
}


def convergence_sample(
    engine_cls: Type[BaseEngine],
    workload: str,
    n: int,
    seeds: Iterable[int],
    check_every: Optional[int] = None,
) -> List[float]:
    """Convergence times (interactions) of one engine over a range of seeds.

    Every engine checks the predicate on the same cadence (default: every
    ``n // 4`` interactions), so the samples share the same discretisation
    and any distributional gap a KS test sees comes from the engines
    themselves.

    >>> from repro.engine.engine import SequentialEngine
    >>> times = convergence_sample(SequentialEngine, "epidemic", 32, range(2))
    >>> len(times), all(t > 0 for t in times)
    (2, True)
    """
    spec = WORKLOADS[workload]
    if check_every is None:
        check_every = max(1, n // 4)
    times: List[float] = []
    for seed in seeds:
        engine = engine_cls(spec.factory(n), n, rng=seed)
        converged = engine.run_until(
            spec.predicate,
            max_interactions=int(spec.budget * n),
            check_every=check_every,
        )
        assert converged, (
            f"{engine_cls.__name__} failed to converge on {workload} "
            f"(seed {seed}, n={n}, budget {spec.budget} parallel time)"
        )
        times.append(float(engine.interactions))
    return times
