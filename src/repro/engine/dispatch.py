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
  the protocol is **count-capable**: it declares its reachable-state
  closure (:meth:`repro.engine.protocol.PopulationProtocol.state_closure`)
  within the state budget *and* an ``O(k)`` ``initial_counts`` path.
  Among eligible protocols the choice is a measured cost model (below),
  consulted from ``_COUNTBATCH_MIN_N`` agents, and above
  ``COUNTBATCH_FORCE_N`` count-batch is selected unconditionally — the
  per-agent engines' ``O(n)`` arrays and construction loops stop being
  viable long before ``10^8``.

The count-batch cost model
==========================

One count-batch update advances an expected ``sqrt(pi * n / 4) ~ 0.886
sqrt(n)`` interactions; its cost is a fixed overhead plus a term quadratic
in the number ``k`` of *occupied* states (the hypergeometric splits of the
pairing rows, see :mod:`repro.engine.count_batch`).  The dispatcher
compares that per-batch cost, evaluated at the closure's size (a bound
on the occupied frontier), against the measured per-interaction cost of
the fast-batch path that would run: the C kernel's, or the NumPy
wave schedule's on a machine without a compiler.  The constants were
fitted to the workloads of ``benchmarks/bench_engine.py``.

The count kernel has two implementations of one stream: the compiled one
(:mod:`repro.engine._count_kernel`, available whenever ``_ckernel``'s
compiler probe succeeds) and its Python mirror.  The model is evaluated
with the constants of the one the engine would actually run.  The compiled
one's per-batch cost is one C call, a fixed overhead plus a cost per
occupied pairing cell, which moves the countbatch-vs-fastbatch crossover
down to ``_COUNTBATCH_MIN_N`` for protocols with small closures.
(GSU19's closure — 1,348 to 1,789 states, whatever ``n`` it was
calibrated for — prices it onto fastbatch until ``COUNTBATCH_FORCE_N``,
as GS18's and lottery's do; GSU19's *realised* frontier is far sparser,
so an explicit ``engine="countbatch"`` beats ``auto`` in that window on
kernel machines: compare README's GSU19 ``countbatch`` and ``fastbatch``
rows at ``10^7``.  The bound is
deliberately trusted — mispricing toward the bit-exact engine is the safe
direction.)  Below ``_COUNTBATCH_MIN_N`` the policy stays deliberately
kernel-independent: every ``auto`` choice there is in the bit-for-bit
sequential-identical engine family, so seed-pinned results agree across
machines with and without a C compiler.  Count-batch trajectories agree
across machines too, since both implementations draw the same stream; only
the choice *between* count-batch and fast-batch in the window up to
``COUNTBATCH_FORCE_N`` depends on the compiler.
"""

from __future__ import annotations

import difflib
import math
from typing import Dict, Optional, Type, Union

from repro.engine._ckernel import kernel_available
from repro.engine._count_kernel import count_kernel_available
from repro.engine.base import BaseEngine
from repro.engine.count_batch import CountBatchEngine
from repro.engine.engine import SequentialEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.engine.protocol import PopulationProtocol
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
]

#: Named engines accepted everywhere an engine specification is taken.
ENGINE_REGISTRY: Dict[str, Type[BaseEngine]] = {
    "sequential": SequentialEngine,
    "countbatch": CountBatchEngine,
    "fastbatch": FastBatchEngine,
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
#: never auto-selected, whatever the cost model says: below this single
#: threshold every auto choice is in the bit-for-bit sequential-identical
#: engine family, so seed-pinned results agree across machines with and
#: without a C compiler.
_COUNTBATCH_MIN_N = 3_000_000

#: Population size from which a count-capable protocol is dispatched to the
#: configuration-space engine unconditionally: the per-agent engines build
#: an O(n) Python list and O(n) arrays at construction (~0.5-1 GB and a
#: minutes-scale encode loop at this size, several GB at 10^8), so the
#: throughput comparison stops being the binding constraint.
COUNTBATCH_FORCE_N = 30_000_000

#: Count-based dispatch requires the closure to fit a sane packed
#: transition LUT: the table holds a (k x k) int64 array, which at 4096
#: states is ~134 MB — beyond that the compiled IR itself stops being
#: "small" and the count engines lose their memory argument.
_COUNTBATCH_MAX_DECLARED_STATES = 4096

# --- measured count-batch cost model (benchmarks/bench_engine.py) ------
#: Fixed per-batch overhead of the Python implementation of the count
#: kernel (``_count_kernel.run_row``): the survival-curve inversion, the
#: occupied-frontier scan and the commit.
_COUNTBATCH_BATCH_OVERHEAD_SECONDS = 2.8e-5
#: Its per pairing cell (occupied x occupied) cost: the cell's share of
#: the participant, responder and pairing-row hypergeometric splits.  Both
#: constants fit measured per-batch costs at n = 10^7 (the epidemic, 4-state
#: exact majority, and k-state identity tables up to k = 64) to within 20%.
_COUNTBATCH_CELL_SECONDS = 1.1e-5
#: Fast-batch reference cost per interaction with the C kernel, fitted to
#: its rate at n >= 10^6 on the bench_engine workloads.
_FASTBATCH_SECONDS_PER_INTERACTION = 2.9e-8
#: The same reference without a compiler, where fastbatch runs its NumPy
#: wave schedule: the epidemic's rate at n = 10^7 (11.4 M int/s; 12.4 M at
#: 10^6).
_FASTBATCH_NUMPY_SECONDS_PER_INTERACTION = 8.8e-8

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


def countbatch_batch_seconds(occupied: int, kernel: Optional[bool] = None) -> float:
    """Modelled cost of one count-batch update at an occupied frontier.

    Both implementations of the count kernel cost a fixed overhead plus a
    term quadratic in the frontier; ``kernel`` selects the compiled one's
    constants, the Python one's otherwise.  ``None`` probes
    :func:`~repro.engine._count_kernel.count_kernel_available`, matching
    what ``CountBatchEngine(kernel="auto")`` will actually run.  All
    constants were measured on the BENCH_engine workloads (module
    docstring).
    """
    if kernel is None:
        kernel = count_kernel_available()
    if kernel:
        overhead = _COUNTBATCH_KERNEL_BATCH_OVERHEAD_SECONDS
        cell = _COUNTBATCH_KERNEL_CELL_SECONDS
    else:
        overhead = _COUNTBATCH_BATCH_OVERHEAD_SECONDS
        cell = _COUNTBATCH_CELL_SECONDS
    return overhead + cell * occupied * occupied


def _countbatch_profitable(occupied: int, n: int) -> bool:
    """Whether the modelled count-batch per-interaction cost beats the
    fast-batch reference at population size ``n``.

    One batch advances an expected ``sqrt(pi * n / 4)`` interactions (the
    mean of the collision-free run-length distribution).  The reference is
    the fast-batch path that would actually run: the C kernel's rate when
    it compiled, the NumPy wave schedule's otherwise.
    """
    expected_run = math.sqrt(math.pi * n / 4.0)
    per_interaction = countbatch_batch_seconds(occupied) / expected_run
    if kernel_available():
        return per_interaction < _FASTBATCH_SECONDS_PER_INTERACTION
    return per_interaction < _FASTBATCH_NUMPY_SECONDS_PER_INTERACTION


def count_capable(protocol: PopulationProtocol, n: int) -> Optional[int]:
    """Closure size if ``protocol`` can be count-dispatched, else ``None``.

    Count-capability requires an ``O(k)`` ``initial_counts`` path (the
    configuration-level engines refuse the ``O(n)`` fallback at 10^7+) and
    a declared :meth:`~repro.engine.protocol.PopulationProtocol.state_closure`
    small enough for the packed transition LUT: a complete table within
    the state budget is the one capability test.  Only the closure's
    length is read; no table is built.

    The ``initial_counts`` probe runs first: it is O(k) cheap, while
    ``state_closure`` may run a protocol's reachable-closure BFS, not
    worth paying for a protocol that lacks the counts hook.
    """
    if protocol.initial_counts(n) is None:
        return None
    closure = protocol.state_closure()
    if closure is None or len(closure[0]) > _COUNTBATCH_MAX_DECLARED_STATES:
        return None
    return len(closure[0])


def auto_engine(protocol: PopulationProtocol, n: int) -> Type[BaseEngine]:
    """Select the fastest *exact* engine for ``(protocol, n)``.

    The policy is a measured throughput/memory trade-off, documented in
    this module's docstring.
    """
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
) -> Type[BaseEngine]:
    """Normalise an engine specification to an engine class.

    ``None`` keeps the historical default (the sequential reference engine),
    a :class:`~repro.engine.base.BaseEngine` subclass is returned unchanged,
    and a string is looked up in :data:`ENGINE_REGISTRY` — with ``"auto"``
    delegating to :func:`auto_engine`, which requires ``protocol`` and ``n``.
    """
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
            return auto_engine(protocol, n)
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


def canonical_name(engine_cls: Type[BaseEngine]) -> str:
    """Registry name of ``engine_cls`` (falls back to the class name)."""
    for name, cls in ENGINE_REGISTRY.items():
        if cls is engine_cls:
            return name
    return engine_cls.__name__
