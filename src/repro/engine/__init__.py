"""Simulation substrate for population protocols.

This sub-package implements the probabilistic population-protocol model of
Angluin et al. (PODC 2004) used throughout the paper: at every discrete step a
*random scheduler* selects an ordered pair of distinct agents uniformly at
random, the first acting as **responder** and the second as **initiator**,
and both agents update their states according to the protocol's deterministic
transition function.

The scheduler itself is a pluggable axis: the complete-graph
:class:`~repro.engine.scheduler.PairSampler` is one implementation of the
:class:`~repro.engine.scheduler.PairScheduler` contract, alongside
restricted interaction topologies (cycle, 2D torus grid, random d-regular,
power-law contact weights).  The scenario layer (:mod:`repro.scenarios`)
bundles a topology with churn and fault models and threads it through the
agent-space engines, dispatch, checkpoints and the experiment runner; the
default complete fault-free scenario is byte-identical to passing no
scenario at all.

All engines consume one shared **compiled transition-table IR**
(:class:`~repro.engine.table.TransitionTable`, obtained from
``protocol.compile()``): protocol states are interned as small integers and
the transition/output functions are lowered into a scalar memo dict, a
packed dense lookup array (the C kernel's input) and vectorised output
maps.  Engines built on the same protocol instance share one table, so a
state pair compiled anywhere serves every hot path.  The table's state-id
layout is a function of the protocol alone: a protocol that declares its
reachable-state closure (``state_closure``: the epidemic, both
majorities, slow, GSU19, GS18, lottery, the standalone junta) gets a
table adopted from it, with every pair compiled, for every engine and
scenario; any other protocol registers states in discovery order.

Three engines are provided, all exact:

* :class:`~repro.engine.engine.SequentialEngine` — the reference engine.  It
  keeps one integer-encoded state per agent and looks transitions up in the
  shared table's dict, so each interaction is a couple of list look-ups.  It
  simulates the model *exactly*.
* :class:`~repro.engine.fast_batch.FastBatchEngine` — exact *and* batched:
  pre-samples blocks of ordered pairs and applies them either through a
  tiny compiled C kernel (when the system has a C compiler; faster than
  the sequential engine at every population size) or through
  collision-free dependency waves with vectorised NumPy lookups.
  Bit-for-bit identical trajectories to the sequential engine for the same
  seed on both paths.  Both keep its per-state count vector live, so a
  convergence check costs ``O(k)``, not a recount of the ``n`` agents.
* :class:`~repro.engine.count_batch.CountBatchEngine` — exact **in
  distribution**, ``O(k)`` memory: simulates over state counts only,
  processing collision-free runs of ``Θ(sqrt(n))`` interactions per
  update of the counts, drawn as ordered picks of the run's agents (short
  runs over wide frontiers) or by hypergeometric splits whose cost follows
  the *occupied* state frontier (long runs over few states), in the style
  of Berenbrink et al.  The whole occupied-frontier loop
  is the count kernel (:mod:`repro.engine._count_kernel`): one
  ``xoshiro256++`` stream with two implementations, compiled C (many
  batches per call, about 100x faster) and a statement-for-statement Python
  mirror for machines without a compiler.  Its exact hypergeometric
  samplers, without NumPy's ``10^9`` operand cap, carry it to
  ``n = 10^12`` and beyond (engine-validated bound:
  ``count_batch.MAX_EXACT_N = 2^53``).  The engine for
  ``n >= 10^7``, where per-agent arrays are slow (cache misses) or
  impossible (memory).  Runs only on a complete table (a closure),
  refusing any other protocol; requires a *count-capable* protocol at
  scale: an ``O(k)`` ``initial_counts`` (the O(n) configuration fallback
  is refused at ``n >= 10^7``) and — for auto dispatch — a
  ``state_closure`` within the state budget (see
  :mod:`repro.engine.closure`).  The two implementations are bit-identical
  and share one set of trajectory-digest pins;
  ``CountBatchEngine(..., kernel="python")`` selects the portable one.

Engine selection guide
======================

All run entry points accept ``engine_cls`` / ``engine`` as a class, a name
(``"sequential"``, ``"countbatch"``, ``"fastbatch"``) or ``"auto"`` (the
CLI exposes the same choices via ``--engine``).  Rules of thumb, with
per-interaction costs (``k`` = number of distinct occupied states); the
measured rates are in README's "Measured engine throughput" table,
rendered from ``BENCH_engine.json``:

===============  ==========  ==========================  ======================
engine           exactness   cost per interaction        use when
===============  ==========  ==========================  ======================
sequential       exact       O(1) Python                 tiny n, or as the
                 trajectory                              reference
fastbatch        exact       O(1): ~ns in the C kernel,  the in-cache workhorse
                 trajectory  or O(1) NumPy amortised     with a C compiler; on
                             over sqrt(n)-long waves     pure NumPy above
                                                         5*10^4 agents
countbatch       exact in    occupied-frontier work      huge n with an O(k)
                 distribu-   amortised over sqrt(n)      count path; the
                 tion        interactions — vanishes     n >= 10^7 engine, to
                             as n grows; O(k) memory;    n = 10^12 with the
                             compiled count kernel       count kernel (auto:
                             with a C compiler           cost model from
                                                         3*10^6, forced from
                                                         3*10^7)
===============  ==========  ==========================  ======================

``"auto"`` (see :func:`~repro.engine.dispatch.auto_engine`) encodes exactly
this table.  A protocol is *count-capable* when it declares an ``O(k)``
``initial_counts`` and a ``state_closure`` of at most 4,096 states
(epidemic, both majorities, the slow election, GSU19, GS18, lottery and
the standalone junta; each closure cached in memory and on disk).  For
count-capable protocols above ``3*10^6`` agents the dispatcher evaluates
a measured per-batch cost model at the closure's size against the
fast-batch reference, and from ``3*10^7`` it forces count-batch outright
— per-agent construction is O(n) in time and memory there.  Everything else gets
fastbatch above the crossover for whichever hot path is actually available,
sequential otherwise.

The :mod:`repro.engine.simulation` module layers run management (convergence
predicates, interaction budgets, recorders, result objects) on top of the
engines, and :mod:`repro.engine.parallel` adds multi-seed sweep drivers.
Every run — ``BaseEngine.run_until`` and ``Simulation.run`` — is driven by
one check loop, :func:`~repro.engine.base.drive_checks`: observe, test the
predicate, then advance by one fixed check period (``check_every``,
default ``n``), clipped to the budget.  Engines run one seed each; a
sweep's seeds run in parallel only through
:func:`~repro.engine.parallel.run_many`'s ``workers=`` pool.

Observation pipeline
====================

Observation (convergence checks, recorders, monitor metrics) is compiled,
not interpreted: a state property — predicate, integer metric, or
categorical label — is declared once as a **state-property view**
(:mod:`repro.engine.views`: :class:`~repro.engine.views.PredicateView`,
:class:`~repro.engine.views.ValueView`,
:class:`~repro.engine.views.CategoricalView`), evaluated once per state id
into a NumPy vector cached on the protocol's shared transition table, and
reduced per check against the engine's native dense
:meth:`~repro.engine.base.BaseEngine.count_vector` (no dict snapshots, no
decode loops).  Predicates and recorders declare the views they evaluate
(their ``views`` attribute) and :class:`~repro.engine.simulation.Simulation`
warms them up front.  The observed-vs-unobserved overhead is the
``observed`` section of ``BENCH_engine.json``, rendered in README's
measured table.

Checkpoint / resume
===================

Every engine carries a bit-exact snapshot API
(:meth:`~repro.engine.base.BaseEngine.snapshot` /
:meth:`~repro.engine.base.BaseEngine.restore`): configuration, interaction
counter, registered state-identifier layout and the **full RNG state**.
A run interrupted at a driver boundary and resumed from a snapshot
continues the *same* trajectory, byte-for-byte — pinned against the per-(protocol, engine) digest pins by
``tests/test_engine_checkpoint.py``.  ``run_protocol`` wires this through
``checkpoint_every=`` / ``checkpoint_path=`` / ``resume=True`` (atomic,
checksummed write-replace checkpoint files, see
:mod:`repro.experiments.io`), and ``run_many(..., store=DIR)`` adds
sweep-cell-level resumability through the
content-addressed on-disk store (:mod:`repro.experiments.store`).
"""

from __future__ import annotations

from repro.engine.protocol import PopulationProtocol, ProtocolSpec
from repro.engine.state import StateEncoder
from repro.engine.table import TransitionTable
from repro.engine.views import (
    CategoricalView,
    PredicateView,
    StateView,
    ValueView,
)
from repro.engine.closure import reachable_states
from repro.engine.rng import make_rng, restore_rng_state, rng_state, spawn_seeds
from repro.engine.scheduler import (
    CycleScheduler,
    Grid2DScheduler,
    PairSampler,
    PairScheduler,
    PowerLawScheduler,
    RandomRegularScheduler,
)
from repro.engine.engine import SequentialEngine
from repro.engine.count_batch import CountBatchEngine
from repro.engine.fast_batch import FastBatchEngine
from repro.engine.dispatch import (
    ENGINE_NAMES,
    ENGINE_REGISTRY,
    auto_engine,
    resolve_engine,
    scenario_capable,
)
from repro.engine.convergence import (
    ConvergencePredicate,
    NeverConverge,
    AllAgentsSatisfy,
    OutputCountCondition,
    SingleLeader,
    StableOutputs,
)
from repro.engine.recorder import (
    Recorder,
    SnapshotRecorder,
    MetricRecorder,
    OutputCountRecorder,
)
from repro.engine.simulation import RunResult, Simulation, run_protocol
from repro.engine.parallel import run_many, SweepPoint

__all__ = [
    "PopulationProtocol",
    "ProtocolSpec",
    "StateEncoder",
    "TransitionTable",
    "StateView",
    "PredicateView",
    "ValueView",
    "CategoricalView",
    "reachable_states",
    "make_rng",
    "rng_state",
    "restore_rng_state",
    "spawn_seeds",
    "PairScheduler",
    "PairSampler",
    "CycleScheduler",
    "Grid2DScheduler",
    "RandomRegularScheduler",
    "PowerLawScheduler",
    "SequentialEngine",
    "CountBatchEngine",
    "FastBatchEngine",
    "ENGINE_NAMES",
    "ENGINE_REGISTRY",
    "auto_engine",
    "resolve_engine",
    "scenario_capable",
    "ConvergencePredicate",
    "NeverConverge",
    "AllAgentsSatisfy",
    "OutputCountCondition",
    "SingleLeader",
    "StableOutputs",
    "Recorder",
    "SnapshotRecorder",
    "MetricRecorder",
    "OutputCountRecorder",
    "RunResult",
    "Simulation",
    "run_protocol",
    "run_many",
    "SweepPoint",
]
