"""Engine selection: registry of named engines and the auto-dispatcher.

Every entry point that runs a simulation (``Simulation`` / ``run_protocol``,
``run_many``, the experiment runner, the CLI) accepts an *engine
specification*: an engine class, one of the registry names below, or
``"auto"``.  :func:`resolve_engine` normalises all three to a concrete
engine class; :func:`auto_engine` implements the ``"auto"`` policy.

Selection policy (measured rates: README's "Measured engine throughput"
table, rendered from ``BENCH_engine.json``):

* ``SequentialEngine`` — per-agent Python loop with transitions from the
  protocol's shared compiled table.  Lowest constant factors among the
  pure-Python paths; the fastest exact engine for small populations when no
  C compiler is available.
* ``FastBatchEngine`` — exact batching over the per-agent array.  With its
  compiled C kernel (available whenever the system has a C compiler, see
  :mod:`repro.engine._ckernel`) it beats the sequential engine at *every*
  population size, so the dispatcher prefers it from a few hundred agents
  up.  Without the kernel it falls back to
  collision-aware NumPy batching, which overtakes the sequential engine
  at ``_FASTBATCH_MIN_N`` agents (collision-free runs lengthen like
  ``sqrt(n)``, so its advantage grows with ``n``).
* ``CountBatchEngine`` — exact in distribution, ``O(k)`` memory, and
  processes collision-free runs of ``Θ(sqrt(n))`` interactions per batched
  update whose cost follows the *occupied* state frontier.  Eligible when
  the protocol is **count-capable**: it declares a finite canonical state
  space (for GSU19 the reachable-state closure, see
  :meth:`repro.core.protocol.GSULeaderElection.canonical_states`) *and* an
  ``O(k)`` ``initial_counts`` path.  Among eligible protocols the choice is
  a measured cost model (below), consulted from ``_COUNTBATCH_MIN_N``
  agents, and above ``COUNTBATCH_FORCE_N``
  count-batch is selected unconditionally — the per-agent engines' ``O(n)``
  arrays and construction loops stop being viable long before ``10^8``.

The approximate tier (never auto-selected)
==========================================

Two further engines trade exactness for asymptotics.  Both compile from
the same :class:`~repro.engine.table.TransitionTable` IR, support the full
observation / checkpoint API, and are **only** available by explicit
request — ``auto`` returns exact engines exclusively, so no dispatch path
can silently downgrade a correctness claim.  Their accuracy against the
exact tier is pinned by ``tests/test_engine_approx.py`` via
:mod:`repro.analysis.accuracy`.

They are ``TauLeapEngine`` (count-space tau-leaping) and
``MeanFieldEngine`` (the expected-count ODE); the engine guide in
:mod:`repro.engine` describes both.

The count-batch cost model
==========================

One count-batch update advances an expected ``sqrt(pi * n / 4) ~ 0.886
sqrt(n)`` interactions; its cost is a fixed overhead plus a term in the
number ``k`` of *occupied* states (scalar hypergeometric splits while ``k``
is small, one compacted vectorised split per pairing row beyond that — see
:mod:`repro.engine.count_batch`).  The dispatcher compares that per-batch
cost, evaluated at the declared state-space size (a bound on the occupied
frontier), against the fast-batch engine's measured per-interaction cost.
The constants were fitted to the workloads of ``benchmarks/bench_engine.py``.

The model is evaluated against the tier the engine would actually run:
with the compiled count kernel (:mod:`repro.engine._count_kernel`,
available whenever ``_ckernel``'s compiler probe succeeds) the per-batch
cost is one C call, a fixed overhead plus a cost per occupied pairing cell,
which moves the countbatch-vs-fastbatch crossover down to
``_COUNTBATCH_MIN_N`` for protocols that declare few states.  (GSU19's
declared closure — 1,789 states at n = 10^8's calibration — prices it onto
fastbatch until ``COUNTBATCH_FORCE_N``; its *realised* frontier is far
sparser, so an explicit ``engine="countbatch"`` beats ``auto`` in that
window on kernel machines: compare README's GSU19 ``countbatch`` and
``fastbatch`` rows at ``10^7``.  The bound is deliberately trusted —
mispricing toward the bit-exact engine is the safe direction.)  Below
``_COUNTBATCH_MIN_N`` the policy stays deliberately kernel-independent:
every ``auto`` choice there is in the bit-for-bit sequential-identical
engine family, so seed-pinned results agree across machines with and
without a C compiler.  (Above it, count-batch trajectories are only ever
reproducible per-path anyway — the kernel and Python paths consume
randomness differently, each with its own digest pins.)
"""

from __future__ import annotations

import difflib
import math
from typing import Dict, Optional, Type, Union

from repro.engine._ckernel import kernel_available
from repro.engine._count_kernel import count_kernel_available
from repro.engine.base import BaseEngine
from repro.engine.count_batch import _MVH_SCALAR_MAX_OCCUPIED, CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.engine.meanfield import MeanFieldEngine
from repro.engine.protocol import PopulationProtocol
from repro.engine.tauleap import TauLeapEngine
from repro.errors import ConfigurationError

__all__ = [
    "COUNTBATCH_FORCE_N",
    "ENGINE_REGISTRY",
    "ENGINE_NAMES",
    "EngineSpec",
    "auto_engine",
    "canonical_name",
    "count_capable",
    "countbatch_batch_seconds",
    "resolve_engine",
    "scenario_capable",
    "state_space_size",
]

#: Named engines accepted everywhere an engine specification is taken.
ENGINE_REGISTRY: Dict[str, Type[BaseEngine]] = {
    "sequential": SequentialEngine,
    "countbatch": CountBatchEngine,
    "fastbatch": FastBatchEngine,
    "meanfield": MeanFieldEngine,
    "tauleap": TauLeapEngine,
}

#: Registry names plus the ``"auto"`` policy, for CLI choices and validation.
ENGINE_NAMES = tuple(sorted(ENGINE_REGISTRY)) + ("auto",)

EngineSpec = Union[str, Type[BaseEngine], None]

#: Population size above which the exact batched engine beats the sequential
#: one *without* the C kernel, i.e. on its NumPy wave path (measured on the
#: epidemic and GSU19 workloads of benchmarks/bench_engine.py).
_FASTBATCH_MIN_N = 50_000

#: Crossover when the C kernel compiled: the batched engine then wins by an
#: order of magnitude at every size, so only trivial populations (where the
#: choice is irrelevant) keep the reference engine.
_FASTBATCH_MIN_N_CKERNEL = 256

#: Population size below which the configuration-space batched engine is
#: never auto-selected, whatever the cost model says.  Deliberately NOT
#: lowered when the C kernel is missing even though count-batch overtakes
#: the NumPy wave path already around 2*10^5: below this single threshold
#: every auto choice is in the bit-for-bit sequential-identical engine
#: family, so seed-pinned results agree across machines with and without a
#: C compiler (the price is at most ~2x throughput for compiler-less users
#: in the 2*10^5..3*10^6 range — they can opt into engine="countbatch"
#: explicitly).
_COUNTBATCH_MIN_N = 3_000_000

#: Population size from which a count-capable protocol is dispatched to the
#: configuration-space engine unconditionally: the per-agent engines build
#: an O(n) Python list and O(n) arrays at construction (~0.5-1 GB and a
#: minutes-scale encode loop at this size, several GB at 10^8), so the
#: throughput comparison stops being the binding constraint.  Public:
#: GSU19's closure gate (repro.core.protocol.CLOSURE_MIN_N_HINT) is defined
#: as this threshold — the size from which the closure actually pays off.
COUNTBATCH_FORCE_N = 30_000_000

#: Count-based dispatch requires the declared state space to fit a sane
#: packed transition LUT: the table allocates an (k x k) int64 array, which
#: at 4096 states is ~134 MB — beyond that the compiled IR itself stops
#: being "small" and the count engines lose their memory argument.
_COUNTBATCH_MAX_DECLARED_STATES = 4096

# --- measured count-batch cost model (benchmarks/bench_engine.py) ------
#: Fixed per-batch overhead: survival-curve inversion, the participant /
#: responder hypergeometric splits and the Python bookkeeping around them.
_COUNTBATCH_BATCH_OVERHEAD_SECONDS = 2.7e-5
#: Per-batch cost while the occupied frontier fits the scalar sequential-
#: conditional path (quadratic: one ~1.7us scalar hypergeometric per
#: occupied pairing cell).
_COUNTBATCH_SCALAR_CELL_SECONDS = 1.7e-6
#: Per-occupied-state per-batch cost on the vectorised pairing-row path
#: (one compacted multivariate hypergeometric per row, ~14us flat plus the
#: row's share of the bulk update; measured ~30us/row on the GSU19
#: workload at n = 10^7).
_COUNTBATCH_ROW_SECONDS = 3.0e-5
#: Fast-batch reference cost per interaction: the C kernel's, used on
#: purpose even where the kernel is absent (kernel-independent policy, see
#: _COUNTBATCH_MIN_N), fitted to its rate at n >= 10^6 on the
#: bench_engine workloads.
_FASTBATCH_SECONDS_PER_INTERACTION = 2.9e-8

# --- compiled count-kernel tier (see repro.engine._count_kernel) --------
#: Fixed per-batch overhead of the compiled count kernel: the ctypes call,
#: the survival-curve inversion and the occupied-frontier scan.
_COUNTBATCH_KERNEL_BATCH_OVERHEAD_SECONDS = 1.0e-6
#: Per pairing cell (occupied x occupied) cost inside the kernel — a LUT
#: lookup plus the cell's share of the hypergeometric row splits; most
#: cells short-circuit, so this is an average (~0.13us measured on a
#: 60-state identity workload at n = 10^7; the model mildly overestimates
#: sparse frontiers, which only delays the countbatch switch — the safe
#: direction).
_COUNTBATCH_KERNEL_CELL_SECONDS = 1.3e-7


def state_space_size(protocol: PopulationProtocol) -> Optional[int]:
    """Number of canonical states the protocol declares, or ``None``.

    ``None`` means the protocol discovers its state space lazily, in which
    case the dispatcher assumes it is too large for count-based simulation.
    Accepts any iterable from ``canonical_states`` — sized containers are
    measured with ``len``; generator-valued enumerations are counted by
    consuming the (fresh) iterator.
    """
    canonical = protocol.canonical_states()
    if canonical is None:
        return None
    try:
        return len(canonical)  # type: ignore[arg-type]
    except TypeError:
        return sum(1 for _ in canonical)


def countbatch_batch_seconds(occupied: int, kernel: Optional[bool] = None) -> float:
    """Modelled cost of one count-batch update at an occupied frontier.

    ``kernel`` selects the compiled-count-kernel tier (quadratic in the
    frontier with a ~13x smaller cell constant and a ~27x smaller fixed
    overhead than the Python path); ``None`` probes
    :func:`~repro.engine._count_kernel.count_kernel_available`, matching
    what ``CountBatchEngine(kernel="auto")`` will actually run.  The
    Python-path model is piecewise in the frontier size with the
    breakpoint imported from the engine itself
    (``count_batch._MVH_SCALAR_MAX_OCCUPIED``), so model and engine switch
    paths at the same frontier; all constants measured on the
    BENCH_engine workloads (module docstring).
    """
    if kernel is None:
        kernel = count_kernel_available()
    if kernel:
        return (
            _COUNTBATCH_KERNEL_BATCH_OVERHEAD_SECONDS
            + _COUNTBATCH_KERNEL_CELL_SECONDS * occupied * occupied
        )
    if occupied <= _MVH_SCALAR_MAX_OCCUPIED:
        return (
            _COUNTBATCH_BATCH_OVERHEAD_SECONDS
            + _COUNTBATCH_SCALAR_CELL_SECONDS * occupied * occupied
        )
    return _COUNTBATCH_BATCH_OVERHEAD_SECONDS + _COUNTBATCH_ROW_SECONDS * occupied


def _countbatch_profitable(occupied: int, n: int) -> bool:
    """Whether the modelled count-batch per-interaction cost beats the
    fast-batch reference at population size ``n``.

    One batch advances an expected ``sqrt(pi * n / 4)`` interactions (the
    mean of the collision-free run-length distribution).
    """
    expected_run = math.sqrt(math.pi * n / 4.0)
    per_interaction = countbatch_batch_seconds(occupied) / expected_run
    return per_interaction < _FASTBATCH_SECONDS_PER_INTERACTION


def count_capable(protocol: PopulationProtocol, n: int) -> Optional[int]:
    """Declared state-space size if ``protocol`` can be count-dispatched.

    Count-capability requires an ``O(k)`` ``initial_counts`` path (the
    configuration-level engines refuse the ``O(n)`` fallback at 10^7+) and
    a finite declared state space small enough for the packed transition
    LUT.  Returns the declared size, or ``None`` when ineligible.

    The ``initial_counts`` probe runs first: it is O(k) cheap, while
    ``canonical_states`` may trigger a protocol's reachable-closure BFS
    (about 1 s for GSU19 on a 2-CPU host — not worth paying for a protocol
    that lacks the counts hook).
    """
    if protocol.initial_counts(n) is None:
        return None
    states = state_space_size(protocol)
    if states is None or states > _COUNTBATCH_MAX_DECLARED_STATES:
        return None
    return states


def scenario_capable(engine_cls: Type[BaseEngine], scenario=None) -> bool:
    """Whether ``engine_cls`` can simulate ``scenario``.

    ``None`` (or the default complete fault-free scenario, which
    :func:`repro.scenarios.scenario.active_scenario` normalises to ``None``)
    is the idealised world every engine simulates.  An *active* scenario is
    compared against the engine's declared
    :attr:`~repro.engine.base.BaseEngine.scenario_capabilities`: the
    per-agent engines accept restricted topologies (and, for the sequential
    engine, churn/faults), while the count-space engines — whose
    hypergeometric splits assume uniform complete-graph pairing over a
    fixed fault-free population — accept none.
    """
    if scenario is None:
        return True
    from repro.scenarios.scenario import active_scenario

    active = active_scenario(scenario)
    if active is None:
        return True
    return active.requirements() <= engine_cls.scenario_capabilities


def _scenario_capable_names() -> list:
    """Registry names of scenario-capable engines (for error messages)."""
    return sorted(
        name
        for name, cls in ENGINE_REGISTRY.items()
        if cls.scenario_capabilities
    )


def auto_engine(
    protocol: PopulationProtocol, n: int, scenario=None
) -> Type[BaseEngine]:
    """Select the fastest *exact* engine for ``(protocol, n)`` (and scenario).

    The policy is a measured throughput/memory trade-off, documented in
    this module's docstring; approximate engines are never returned.  With
    an active scenario the choice is restricted to the capable engines:
    topology-only scenarios keep the fastbatch-vs-sequential threshold
    (both engines consume the scheduler identically), churn/fault scenarios
    are the sequential engine's alone.
    """
    if scenario is not None:
        from repro.scenarios.scenario import active_scenario

        active = active_scenario(scenario)
        if active is not None:
            if active.requirements() <= FastBatchEngine.scenario_capabilities:
                threshold = (
                    _FASTBATCH_MIN_N_CKERNEL
                    if kernel_available()
                    else _FASTBATCH_MIN_N
                )
                if n >= threshold:
                    return FastBatchEngine
            return SequentialEngine
    if n >= _COUNTBATCH_MIN_N:
        states = count_capable(protocol, n)
        if states is not None and (
            n >= COUNTBATCH_FORCE_N or _countbatch_profitable(states, n)
        ):
            return CountBatchEngine
    threshold = (
        _FASTBATCH_MIN_N_CKERNEL if kernel_available() else _FASTBATCH_MIN_N
    )
    if n >= threshold:
        return FastBatchEngine
    return SequentialEngine


def resolve_engine(
    engine: EngineSpec,
    protocol: Optional[PopulationProtocol] = None,
    n: Optional[int] = None,
    scenario=None,
) -> Type[BaseEngine]:
    """Normalise an engine specification to an engine class.

    ``None`` keeps the historical default (the sequential reference engine),
    a :class:`~repro.engine.base.BaseEngine` subclass is returned unchanged,
    and a string is looked up in :data:`ENGINE_REGISTRY` — with ``"auto"``
    delegating to :func:`auto_engine`, which requires ``protocol`` and ``n``.

    With an active ``scenario``, the resolved class must pass
    :func:`scenario_capable`: requesting e.g. ``engine="countbatch"`` under
    a restricted topology raises :class:`~repro.errors.ConfigurationError`
    up front, naming the capable engines, instead of failing deep inside a
    hypergeometric split that silently assumed uniform pairing.
    """
    resolved = _resolve_engine_spec(engine, protocol, n, scenario)
    if scenario is not None and not scenario_capable(resolved, scenario):
        raise ConfigurationError(
            f"engine {canonical_name(resolved)!r} assumes the complete "
            "fault-free interaction model and cannot run this scenario; "
            f"scenario-capable engines: {', '.join(_scenario_capable_names())}"
        )
    return resolved


def canonical_name(engine_cls: Type[BaseEngine]) -> str:
    """Registry name of ``engine_cls`` (falls back to the class name)."""
    for name, cls in ENGINE_REGISTRY.items():
        if cls is engine_cls:
            return name
    return engine_cls.__name__


def _resolve_engine_spec(
    engine: EngineSpec,
    protocol: Optional[PopulationProtocol],
    n: Optional[int],
    scenario=None,
) -> Type[BaseEngine]:
    if engine is None:
        return SequentialEngine
    if isinstance(engine, type) and issubclass(engine, BaseEngine):
        return engine
    if isinstance(engine, str):
        name = engine.lower()
        if name == "auto":
            if protocol is None or n is None:
                raise ConfigurationError(
                    "engine='auto' needs a protocol and a population size to dispatch on"
                )
            return auto_engine(protocol, n, scenario)
        try:
            return ENGINE_REGISTRY[name]
        except KeyError:
            valid = ", ".join(repr(choice) for choice in ENGINE_NAMES)
            close = difflib.get_close_matches(name, ENGINE_NAMES, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ConfigurationError(
                f"unknown engine {engine!r}{hint}; valid engine names are "
                f"{valid}, or pass an engine class"
            ) from None
    raise ConfigurationError(
        f"engine specification must be a name or an engine class, got {engine!r}"
    )
