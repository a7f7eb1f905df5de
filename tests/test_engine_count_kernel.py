"""Tests for the count kernel: one stream, two implementations.

The count-batch engine draws one xoshiro256++ stream through a compiled C
kernel (:mod:`repro.engine._count_kernel`) or through its statement-for-
statement Python mirror (``_count_kernel.run_row``, ``kernel="python"``
and every machine without a compiler).  This module carries:

* the C kernel's run of the count pin set (``KERNEL_EXPECTED``, defined
  beside the other pins in ``test_engine_trajectory_digests``, which runs
  it on the Python implementation), and of the benchmark-regime and
  ``n = 10^12`` pins, which both implementations must reproduce;
* checkpoint/resume byte-exactness on the C kernel and across the two
  implementations in both directions;
* a Hypothesis differential test that calls both implementations on the
  same random state (random complete LUTs, ``n`` up to ``2^53``) and
  compares every output of every call, on batches of both paths;
* the batch law: each path's pair matrix against its exact distribution
  on tiny configurations;
* the samplers' distributions at operands up to ``10^12``, and
* the trillion-agent acceptance run: GSU19 count-space at ``n = 10^12``
  with a pinned digest and an O(k) memory bound.

Regenerate the pins (after an INTENTIONAL consumption change, which must
change both implementations alike) with
``python tests/test_engine_trajectory_digests.py``.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_engine_trajectory_digests import (
    _CHUNKS,
    _SEED,
    KERNEL_EXPECTED,
    PROTOCOLS,
    trajectory_digest,
)

from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.engine import _count_kernel, count_batch
from repro.engine._count_kernel import (
    CountRow,
    _direct_batch,
    _hyp_draw,
    _pair_rows,
    _split,
    count_kernel_available,
    kernel_thread_backend,
    run_row,
    seed_kernel_rng,
)
from repro.engine.count_batch import (
    _SURVIVAL_MAX_LEN,
    MAX_EXACT_N,
    CountBatchEngine,
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
# Pins: the C kernel's runs, and the pins both implementations share
# ----------------------------------------------------------------------

#: GSU19 at n = 10^12 (tiny calibration above), seed ``_SEED``, three
#: chunks of 2,000,000 interactions: the acceptance digest for the extreme
#: tier.  Pinned from a run whose peak RSS was measured at 294 MiB.  Every
#: batch takes the split path (runs of ~6·10^5 pairs over a few states).
_EXTREME_DIGEST = "fe33266bed0714de5d682ecda00945b0f8a456478740c8da75290eb93706ae55"
_EXTREME_CHUNK = 2_000_000

#: The pin in the benchmark's regime, where the grid above (<= 256 agents
#: for ~6n interactions) never reaches: participant-split operands up to n
#: and a frontier of dozens of states.  GSU19 at its production calibration with the closure registered,
#: n = 20,000, five chunks of 200,000 interactions (the frontier holds 37,
#: 55, 54, 96 and 75 states after them; 10,773 of 11,169 batches take the
#: direct path).
_PRODUCTION_CLOSURE_DIGEST = (
    "983ca4c8eaab855034360490d5338f9b26ca1d4af72e0e955035bfff70c7e72c"
)


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
def test_auto_uses_kernel_when_available():
    """kernel="auto" takes the compiled implementation on kernel machines
    (and draws the pinned stream)."""
    factory, n = PROTOCOLS["epidemic"]
    assert CountBatchEngine(factory(), n, rng=1)._kernel is not None
    observed = trajectory_digest(CountBatchEngine, factory, n)
    assert observed == KERNEL_EXPECTED["epidemic"]


# ----------------------------------------------------------------------
# Checkpoint/resume byte-exactness on the C kernel and across implementations
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
@pytest.mark.parametrize(
    "recorded,resumed", [("c", "python"), ("python", "c")], ids=["c-to-python", "python-to-c"]
)
@pytest.mark.parametrize("protocol_name", ("epidemic", "gsu19"))
def test_checkpoint_resumes_across_implementations(
    tmp_path, protocol_name, recorded, resumed
):
    """A checkpoint written by one implementation continues on the other
    to the pinned trajectory: the xoshiro words are the whole stream."""
    protocol_factory, n = PROTOCOLS[protocol_name]
    digest = hashlib.sha256()
    engine = CountBatchEngine(protocol_factory(), n, rng=_SEED, kernel=recorded)
    engine.run(2 * n + 3)
    _digest_update(digest, engine)
    path = tmp_path / "run.ckpt"
    write_checkpoint(engine.snapshot(), path)
    other = CountBatchEngine(protocol_factory(), n, rng=0xDEAD, kernel=resumed)
    other.restore(read_checkpoint(path))
    for _ in range(_CHUNKS - 1):
        other.run(2 * n + 3)
        _digest_update(digest, other)
    assert digest.hexdigest() == KERNEL_EXPECTED[protocol_name]


def _production_digest(kernel: str) -> str:
    protocol = GSULeaderElection(GSUParams(n_hint=10**8, gamma=24, phi=1, psi=3))
    engine = CountBatchEngine(protocol, 20_000, rng=_SEED, kernel=kernel)
    digest = hashlib.sha256()
    for _ in range(5):
        engine.run(200_000)
        _digest_update(digest, engine)
    assert engine.table.compiled_pairs == 0
    return digest.hexdigest()


@needs_kernel
def test_kernel_pinned_at_production_calibration():
    assert _production_digest("c") == _PRODUCTION_CLOSURE_DIGEST


def test_python_implementation_pinned_at_production_calibration():
    assert _production_digest("python") == _PRODUCTION_CLOSURE_DIGEST


# ----------------------------------------------------------------------
# Differential test: both implementations, call for call
# ----------------------------------------------------------------------
def _survival(n: int, jmax: int) -> np.ndarray:
    """The engine's negated survival curve, truncated at ``jmax`` (exact
    by the same conditioning as the engine's own truncation)."""
    steps = np.arange(jmax, dtype=np.float64)
    log_p = np.log1p(-2.0 * steps / n) + np.log1p(-2.0 * steps / (n - 1.0))
    return -np.exp(np.cumsum(log_p))


def _c_row(counts, seen, rng, lut, k, cap, budget, n, neg_survival, jmax):
    """One ``repro_count_row`` call with :func:`run_row`'s signature."""
    scratch = np.zeros(11 * k, dtype=np.int64)
    row = CountRow(
        counts=counts.ctypes.data, seen=seen.ctypes.data, rng=rng.ctypes.data,
        lut=lut.ctypes.data, k=k, cap=cap, budget=budget,
    )
    _count_kernel.load_count_kernel()(
        ctypes.addressof(row), n, neg_survival.ctypes.data, jmax, scratch.ctypes.data
    )
    assert not scratch[: 5 * k].any()  # weight regions restored to zero
    return row.applied


_POPULATIONS = st.one_of(
    st.integers(2, 40),  # every split takes the inversion branch
    st.integers(41, 10**7),  # runs of >= 10 pairs: HRUA
    st.integers(MAX_EXACT_N - 10**6, MAX_EXACT_N),  # operands near 2^53
)


def _differential_case(k, pad, n, cuts, seed, budgets):
    """Run both implementations call for call on one random configuration
    and assert that every output agrees."""
    rng = np.random.default_rng(seed)
    cap = k + pad
    bounds = sorted(int(cut * n) for cut in cuts[: k - 1])
    counts = np.diff([0, *bounds, n]).astype(np.int64)
    lut = rng.integers(0, k, size=cap * cap) << 32 | rng.integers(0, k, size=cap * cap)
    jmax = max(1, min(n // 2, 4096))
    neg_survival = _survival(n, jmax)
    words = seed_kernel_rng(make_rng(seed))
    states = [
        (counts.copy(), np.zeros(k, dtype=np.uint8), words.copy()) for _ in range(2)
    ]
    for budget in budgets:
        outputs = [
            call(c, s, w, lut, k, cap, budget, n, neg_survival, jmax)
            for call, (c, s, w) in zip((_c_row, run_row), states)
        ]
        assert outputs[0] == outputs[1] == budget
        for left, right in zip(*states):
            assert np.array_equal(left, right)


#: Fixed differential cases on both sides of the batch rule, with every
#: declared state occupied at k = 1 (split: one state draws nothing) and
#: k = 2 (direct: the alias table fills the whole k-wide regions), a
#: direct run over three states, split runs at large n, and the overflow
#: clause at n = 2^53 - 1: 1,024 occupied states still go direct (n * 1,024
#: fits in int64), 1,025 take the split path whatever the run length.
_NEAR_EXACT_N = MAX_EXACT_N - 1
_DIFFERENTIAL_EXAMPLES = [
    dict(k=1, pad=0, n=8, cuts=[0.5] * 63, seed=1, budgets=[3, 9]),
    dict(k=2, pad=0, n=8, cuts=[0.5] * 63, seed=2, budgets=[3, 9]),
    dict(k=2, pad=1, n=10**6, cuts=[0.5] * 63, seed=3, budgets=[4000]),
    dict(k=3, pad=0, n=30, cuts=[0.3, 0.6] + [0.5] * 61, seed=4, budgets=[40, 40]),
    dict(k=64, pad=2, n=10**7, cuts=[i / 64 for i in range(1, 64)], seed=5,
         budgets=[4000, 700]),
    dict(k=64, pad=0, n=_NEAR_EXACT_N, cuts=[i / 64 for i in range(1, 64)], seed=6,
         budgets=[200, 252]),
    dict(k=1024, pad=0, n=_NEAR_EXACT_N, cuts=[i / 1024 for i in range(1, 1024)],
         seed=7, budgets=[100]),
    dict(k=1025, pad=0, n=_NEAR_EXACT_N, cuts=[i / 1025 for i in range(1, 1025)],
         seed=8, budgets=[100]),
]


def _with_examples(cases):
    def decorate(test):
        for case in reversed(cases):
            test = example(**case)(test)
        return test

    return decorate


@needs_kernel
@settings(max_examples=120, deadline=None)
@given(
    k=st.integers(1, 64),
    pad=st.integers(0, 3),
    n=_POPULATIONS,
    cuts=st.lists(st.floats(0.0, 1.0), min_size=63, max_size=63),
    seed=st.integers(0, 2**32 - 1),
    budgets=st.lists(st.integers(1, 4000), min_size=1, max_size=4),
)
@_with_examples(_DIFFERENTIAL_EXAMPLES)
def test_python_implementation_matches_the_kernel_call_for_call(
    k, pad, n, cuts, seed, budgets
):
    """Random complete packed LUTs (``k <= 64``, a side ``cap >= k``) and
    random counts summing to ``n``: every call applies its whole budget,
    and the counts, seen mask and xoshiro words agree.  Small ``n`` and
    wide frontiers send batches down the direct path, long runs over few
    states down the split path (the fixed examples take both)."""
    _differential_case(k, pad, n, cuts, seed, budgets)


def _snapshot_case(protocol_name, first, chunks, cut):
    """Run ``chunks`` on the ``first`` implementation, snapshot after
    ``cut`` of them, restore into the other and finish there, chunk by
    chunk against an uninterrupted run."""
    factory, n = PROTOCOLS[protocol_name]
    second = "python" if first == "c" else "c"
    reference = CountBatchEngine(factory(), n, rng=_SEED, kernel=first)
    engine = CountBatchEngine(factory(), n, rng=_SEED, kernel=first)
    for index, chunk in enumerate(chunks):
        if index == min(cut, len(chunks) - 1):
            snapshot = engine.snapshot()
            engine = CountBatchEngine(factory(), n, rng=0xDEAD, kernel=second)
            engine.restore(snapshot)
        reference.run(chunk)
        engine.run(chunk)
        assert engine.interactions == reference.interactions
        assert engine.state_counts() == reference.state_counts()
        assert engine.states_ever_occupied == reference.states_ever_occupied
    assert np.array_equal(engine._kernel_rng, reference._kernel_rng)


#: Resumes whose continued stream crosses the batch rule: the epidemic's
#: two states take the split path but for runs of at most 8 pairs, and
#: GSU19, snapshotted before its first batch, starts on one occupied state
#: (split) and grows onto the direct path.
_SNAPSHOT_EXAMPLES = [
    dict(protocol_name="epidemic", first="c", chunks=[700, 700, 700], cut=1),
    dict(protocol_name="gsu19", first="c", chunks=[5, 700, 700], cut=0),
]


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(
    protocol_name=st.sampled_from(["epidemic", "gsu19", "majority", "lottery"]),
    first=st.sampled_from(["c", "python"]),
    chunks=st.lists(st.integers(1, 700), min_size=2, max_size=5),
    cut=st.integers(1, 4),
)
@_with_examples(_SNAPSHOT_EXAMPLES)
def test_snapshot_restore_across_implementations_continues_the_stream(
    protocol_name, first, chunks, cut
):
    """A snapshot written by one implementation continues on the other:
    the end state equals an uninterrupted run's, chunk by chunk."""
    _snapshot_case(protocol_name, first, chunks, cut)


def _recorded_rule(monkeypatch) -> list:
    """Record the mirror's ``(length, nocc, n, direct)`` batch decisions."""
    decisions = []
    rule = _count_kernel._direct_batch

    def recording(length, nocc, n):
        direct = rule(length, nocc, n)
        decisions.append((length, nocc, n, direct))
        return direct

    monkeypatch.setattr(_count_kernel, "_direct_batch", recording)
    return decisions


@needs_kernel
def test_differential_examples_take_both_paths(monkeypatch):
    """The fixed differential examples reach both sides of the rule, with
    every declared state occupied at k = 1 and k = 2 (the latter on the
    direct path); at n = 2^53 - 1 the 1,025-state batches are short enough
    for the direct path but the overflow clause keeps them split; and each
    fixed resume continues on the Python mirror through batches of both
    paths."""
    decisions = _recorded_rule(monkeypatch)
    full = set()
    for case in _DIFFERENTIAL_EXAMPLES:
        before = len(decisions)
        _differential_case(**case)
        full |= {
            (case["k"], direct) for _, nocc, _, direct in decisions[before:]
            if nocc == case["k"]
        }
    assert {direct for *_, direct in decisions} == {False, True}
    assert {(1, False), (2, True), (64, True), (1024, True), (1025, False)} <= full
    assert (1025, True) not in full
    near = [d for d in decisions if d[2] == _NEAR_EXACT_N and d[1] > 1024]
    per_state = _count_kernel._DIRECT_PER_STATE
    assert near and all(length <= per_state * (nocc - 1) for length, nocc, _, _ in near)
    for case in _SNAPSHOT_EXAMPLES:
        decisions.clear()
        _snapshot_case(**case)
        assert {direct for *_, direct in decisions} == {False, True}, case


# ----------------------------------------------------------------------
# C-kernel engine invariants
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
def test_closure_engines_share_one_lut_and_one_kernel_call_per_run():
    """32 GSU19 engines at n = 10^6 over the K = 1,789 closure, each on its
    own protocol instance, share one read-only packed LUT and compile no
    pair; a run of n interactions is one kernel call."""
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
    # "auto" falls back to the Python implementation silently.
    engine = CountBatchEngine(OneWayEpidemic(), 100, rng=0, kernel="auto")
    assert engine._kernel is None
    engine.run(50)
    assert sum(engine.state_counts().values()) == 100


def test_kernel_argument_is_validated():
    with pytest.raises(ConfigurationError, match="kernel"):
        CountBatchEngine(OneWayEpidemic(), 100, rng=0, kernel="fortran")


# ----------------------------------------------------------------------
# Samplers: pairing marginals, survival bounds, operands past 10^9
# ----------------------------------------------------------------------
def _pair_matrix_law(counts, length) -> dict:
    """The exact law of one collision-free batch's pair matrix.

    ``M[a][b]`` counts the batch's (responder in state ``a``, initiator in
    state ``b``) interactions.  The batch's ``2 * length`` participants are
    a uniform ordered sample without replacement, so an ordered sequence
    of pair types with matrix ``M`` has probability
    ``prod_s counts[s]^(h_s) / n^(2L)`` (falling factorials, ``h_s`` the
    agents of state ``s`` it uses), and ``L! / prod M!`` sequences share
    each ``M``.  Returns ``{flattened M: probability}``.
    """
    k, n = len(counts), sum(counts)
    cells = k * k
    law = {}
    # Stars and bars: every way to put `length` interactions in k*k cells.
    for bars in itertools.combinations(range(length + cells - 1), cells - 1):
        edges = (-1, *bars, length + cells - 1)
        matrix = tuple(edges[i + 1] - edges[i] - 1 for i in range(cells))
        used = [0] * k
        for cell, mult in enumerate(matrix):
            used[cell // k] += mult
            used[cell % k] += mult
        if any(u > c for u, c in zip(used, counts)):
            continue
        orders = math.factorial(length)
        for mult in matrix:
            orders //= math.factorial(mult)
        agents = math.prod(math.perm(c, u) for c, u in zip(counts, used))
        law[matrix] = Fraction(orders * agents, math.perm(n, 2 * length))
    assert sum(law.values()) == 1
    return law


def _sample_pair_matrices(counts, length, samples, seed) -> list:
    """``samples`` single batches of exactly ``length`` interactions on the
    Python mirror, each from ``counts``, as flattened pair matrices.

    The survival curve is all ``-1``, so every run has the full length and
    owes no collision; the LUT sends pair ``(a, b)`` to the states
    ``k + a*k + b`` and a sink, so the batch's counts are its matrix."""
    k = len(counts)
    total = k + k * k + 1
    lut = np.full(total * total, -1, dtype=np.int64)
    for a in range(k):
        for b in range(k):
            lut[a * total + b] = (k + a * k + b) << 32 | (total - 1)
    neg_survival = np.full(length, -1.0)
    words = seed_kernel_rng(make_rng(seed))
    matrices = []
    for _ in range(samples):
        state = np.zeros(total, dtype=np.int64)
        state[:k] = counts
        seen = np.zeros(total, dtype=np.uint8)
        applied = run_row(
            state, seen, words, lut, total, total, length, sum(counts),
            neg_survival, length,
        )
        assert applied == length
        matrices.append(tuple(int(c) for c in state[k : k + k * k]))
    return matrices


@pytest.mark.parametrize(
    "counts,length,direct",
    [
        ((3, 3, 2), 3, True),
        ((5, 3), 4, True),
        # Every agent is drawn, so the late picks' proposals land mostly
        # on drawn-out states and are rejected.
        ((6, 1, 1), 4, True),
        # The split side needs more than 8 pairs per occupied state beyond
        # the first, so its smallest two-state case has n = 18.
        ((10, 8), 9, False),
    ],
    ids=[
        "direct-3-states", "direct-2-states", "direct-rejection-heavy",
        "split-2-states",
    ],
)
def test_batch_pair_matrix_follows_the_exact_law(counts, length, direct):
    """Each batch path draws the pair matrix of a collision-free batch with
    its exact law: a chi-square of 4,000 single-batch draws against the
    enumerated distribution (outcomes expected fewer than 5 times pooled)
    stays below the 99.9% quantile.  The (length, occupied states) choice
    puts each case on the named side of the batch rule."""
    assert _direct_batch(length, len(counts), sum(counts)) == direct
    law = _pair_matrix_law(counts, length)
    samples = 4000
    observed = {}
    for matrix in _sample_pair_matrices(counts, length, samples, seed=len(law)):
        assert matrix in law, matrix  # never an impossible matrix
        observed[matrix] = observed.get(matrix, 0) + 1
    cells, pooled = [], [0, 0.0]
    for matrix, probability in law.items():
        expected = samples * float(probability)
        if expected < 5:
            pooled[0] += observed.get(matrix, 0)
            pooled[1] += expected
        else:
            cells.append((observed.get(matrix, 0), expected))
    if pooled[1] > 0:
        cells.append(tuple(pooled))
    statistic = sum((seen - expected) ** 2 / expected for seen, expected in cells)
    dof = len(cells) - 1
    # Wilson-Hilferty: the chi-square quantile at 1 - 10^-3 (z = 3.09).
    quantile = dof * (1 - 2 / (9 * dof) + 3.09 * math.sqrt(2 / (9 * dof))) ** 3
    assert statistic < quantile, (statistic, quantile, dof)


def test_pair_matrix_marginals_are_exact():
    """The split path's pairing rows reproduce both marginals exactly: the
    responder marginal is the responder split, and the initiator marginal
    is the involved multiset minus the responders (the last row takes the
    rest of the pool without a draw).  40 pairs over three occupied states
    is a split-path batch."""
    engine = _python_engine(ApproximateMajority(initial_a_fraction=0.5), 4096, rng=3)
    engine.run(2_000)  # occupy all three states
    words = [int(word) for word in engine._kernel_rng]
    pairs = 40
    weighted = [(sid, int(c)) for sid, c in enumerate(engine.count_vector()) if c]
    assert not _direct_batch(pairs, len(weighted), engine.n)
    involved = {
        sid: h for sid, h in _split(words, weighted, 2 * pairs, engine.n) if h
    }
    responders = {
        sid: r for sid, r in _split(words, involved.items(), pairs, 2 * pairs) if r
    }
    initiators = {sid: h - responders.get(sid, 0) for sid, h in involved.items()}
    responder_marginal: dict = {}
    initiator_marginal: dict = {}
    for a, row in _pair_rows(words, responders, dict(initiators), pairs):
        for b, m in row:
            responder_marginal[a] = responder_marginal.get(a, 0) + m
            initiator_marginal[b] = initiator_marginal.get(b, 0) + m
    assert sum(responder_marginal.values()) == pairs
    assert {a: m for a, m in responder_marginal.items() if m} == responders
    assert {b: m for b, m in initiator_marginal.items() if m} == {
        b: m for b, m in initiators.items() if m
    }


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


def test_hypergeometric_large_is_exact_in_mean_and_support():
    """The stream's hypergeometric sampler (HRUA + urn inversion) at
    operands past NumPy's 10^9 cap: support bounds always, mean to ~4
    sigma."""
    words = [int(word) for word in seed_kernel_rng(make_rng(7))]
    good, bad, sample = 3 * 10**9, 7 * 10**9, 10**6
    total = good + bad
    trials = 400
    values = [_hyp_draw(words, good, bad, sample) for _ in range(trials)]
    assert all(0 <= v <= sample for v in values)
    mean = sample * good / total
    var = sample * (good / total) * (bad / total) * (total - sample) / (total - 1)
    sigma = (var / trials) ** 0.5
    assert abs(np.mean(values) - mean) < 4 * sigma
    # The urn-inversion branch (symmetrised sample < 10): tiny draws from
    # a 10^12 pool.
    small = [_hyp_draw(words, 6 * 10**11, 4 * 10**11, 5) for _ in range(2000)]
    assert all(0 <= v <= 5 for v in small)
    assert abs(np.mean(small) - 3.0) < 0.15
    # Degenerate pools short-circuit without consuming randomness.
    before = list(words)
    assert _hyp_draw(words, 0, 10**10, 5) == 0
    assert _hyp_draw(words, 10**10, 0, 5) == 5
    assert words == before


def test_multivariate_hypergeometric_promotes_past_numpy_total_cap():
    """A sequential-conditional split whose total passes 10^9 (where
    NumPy's vectorised sampler would refuse) stays exact."""
    words = [int(word) for word in seed_kernel_rng(make_rng(5))]
    colors = np.zeros(20, dtype=np.int64)
    colors[::2] = 10**9
    colors[1::2] = 1
    total = int(colors.sum())
    draw = np.zeros(20, dtype=np.int64)
    for sid, drawn in _split(words, enumerate(colors.tolist()), 10_000, total):
        draw[sid] = drawn
    assert draw.sum() == 10_000
    assert np.all(draw >= 0)
    assert np.all(draw <= colors)
    # The even (huge) states hold virtually all the mass.
    assert draw[::2].sum() >= 9_990


# ----------------------------------------------------------------------
# The trillion-agent acceptance run
# ----------------------------------------------------------------------
def _extreme_run(kernel: str) -> CountBatchEngine:
    engine = CountBatchEngine(_gsu19_extreme(), 10**12, rng=_SEED, kernel=kernel)
    digest = hashlib.sha256()
    for _ in range(_CHUNKS):
        engine.run(_EXTREME_CHUNK)
        _digest_update(digest, engine)
    assert digest.hexdigest() == _EXTREME_DIGEST, (
        f"the extreme-tier trajectory diverged from the pinned digest on "
        f"kernel={kernel!r}; if the consumption change is intentional, "
        "regenerate the pin (see module docstring)"
    )
    assert sum(engine.state_counts().values()) == 10**12
    return engine


@needs_kernel
def test_gsu19_count_space_at_1e12_is_pinned_and_small():
    """GSU19 count-space at n = 10^12 through the kernel: the digest is
    pinned (reproducible across machines) and the engine-resident memory
    stays far below the 1 GiB acceptance bound — the survival curve's
    2^23-entry cap (64 MiB) dominates."""
    engine = _extreme_run("c")
    resident = (
        engine._neg_survival.nbytes
        + engine._counts.nbytes
        + engine._scratch.nbytes
        + engine._seen.nbytes
        + engine.table.packed.nbytes
    )
    assert resident < 1 << 30, f"engine-resident memory {resident} >= 1 GiB"
    # O(k), not O(n): the dominant term is the capped survival curve.
    assert engine._neg_survival.nbytes == _SURVIVAL_MAX_LEN * 8


def test_python_implementation_pinned_at_1e12():
    _extreme_run("python")


if __name__ == "__main__":  # pragma: no cover - C-side pin regeneration helper
    for name, (factory, population) in sorted(PROTOCOLS.items()):
        value = trajectory_digest(_kernel_engine, factory, population)
        print(f'    "{name}": "{value}",')
    print("production:", _production_digest("c"))
