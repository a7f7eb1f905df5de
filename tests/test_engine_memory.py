"""Allocation regression tests for the O(k)-memory claims.

The configuration-level engine (:class:`CountBatchEngine`) advertises O(k)
memory — construction must not
allocate anything proportional to the population.  Before the
``initial_counts`` hooks landed, count-capable-looking protocols silently
fell back to materialising ``initial_configuration`` — an O(n) Python list
that costs ~80 MB at ``n = 10^7`` and multi-GB at ``10^8`` *inside an
engine documented as O(k)*.  These tests pin the fix two ways:

* construction at ``n = 10^7`` stays under a peak-allocation budget that an
  O(n) path would exceed by more than an order of magnitude, for every
  count-capable protocol, and
* the O(n) fallback is refused outright (``ProtocolError``) at ``10^7+``
  for protocols with no O(k) path.

The budget (4 MiB) is dominated by the count-batch survival curve — an
``O(sqrt(n))`` array (~215 KB of float64 at ``10^7``) plus its construction
temporaries — while the would-be O(n) list alone is ``8n`` bytes = 80 MB.
The per-protocol compiled table is built *before* tracing starts: it is
shared by every engine on the protocol instance and its size depends on the
state space, never on ``n``.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.params import GSUParams
from repro.core.protocol import GSULeaderElection
from repro.engine.count_batch import CountBatchEngine
from repro.engine.protocol import ProtocolSpec, initial_count_items
from repro.errors import ProtocolError
from repro.protocols.approximate_majority import ApproximateMajority
from repro.protocols.epidemic import OneWayEpidemic
from repro.protocols.exact_majority import ExactMajority
from repro.protocols.gs18 import GS18LeaderElection
from repro.protocols.junta_standalone import JuntaElection
from repro.protocols.lottery import LotteryLeaderElection
from repro.protocols.slow import SlowLeaderElection

_N = 10**7

#: Peak-allocation budget for engine construction at n = 10^7.  An O(n)
#: construction would allocate >= 8n bytes = 80 MB; the real O(k) + O(sqrt n)
#: construction stays around 1-2 MB.
_PEAK_BUDGET_BYTES = 4 * 2**20

#: Every protocol with an O(k) initial_counts path.  GSU19 uses the small
#: gamma=4 calibration (144-state closure, sub-second BFS), which its table
#: is laid out over.
COUNT_CAPABLE_PROTOCOLS = [
    ("epidemic", lambda: OneWayEpidemic()),
    ("approximate-majority", lambda: ApproximateMajority(initial_a_fraction=0.7)),
    ("exact-majority", lambda: ExactMajority.for_population(_N)),
    ("slow-leader-election", lambda: SlowLeaderElection()),
    ("gs18-leader-election", lambda: GS18LeaderElection.for_population(_N)),
    ("lottery-leader-election", lambda: LotteryLeaderElection.for_population(_N)),
    ("junta-election", lambda: JuntaElection.for_population(_N)),
    (
        "gsu19-leader-election",
        lambda: GSULeaderElection(GSUParams(n_hint=10**8, gamma=4, phi=1, psi=1)),
    ),
]

_FACTORIES = dict(COUNT_CAPABLE_PROTOCOLS)


@pytest.mark.parametrize("engine_cls", [CountBatchEngine])
@pytest.mark.parametrize("protocol_name", [name for name, _ in COUNT_CAPABLE_PROTOCOLS])
def test_count_engine_construction_is_o_k(protocol_name, engine_cls):
    protocol = _FACTORIES[protocol_name]()
    assert protocol.initial_counts(_N) is not None, (
        f"{protocol_name} lost its O(k) initial_counts path"
    )
    protocol.compile()  # n-independent shared table, excluded from the trace
    tracemalloc.start()
    try:
        engine = engine_cls(protocol, _N, rng=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(count for _, count in engine.state_count_items()) == _N
    assert peak < _PEAK_BUDGET_BYTES, (
        f"{engine_cls.__name__} construction on {protocol_name} peaked at "
        f"{peak / 2**20:.1f} MiB — an O(n) allocation slipped back in"
    )


def _no_counts_protocol() -> ProtocolSpec:
    """An epidemic-alike with no initial_counts (the O(n) fallback shape)."""
    return ProtocolSpec(
        name="no-counts-epidemic",
        initial="susceptible",
        rules=lambda r, i: ("informed", i) if i == "informed" else (r, i),
        outputs=lambda s: "F",
        states=["informed", "susceptible"],
    )


@pytest.mark.parametrize("engine_cls", [CountBatchEngine])
def test_count_engines_refuse_o_n_fallback_at_scale(engine_cls):
    with pytest.raises(ProtocolError, match="initial_counts"):
        engine_cls(_no_counts_protocol(), _N, rng=0)


def test_o_n_fallback_still_streams_below_the_threshold():
    """Below 10^7 the fallback is allowed but streams the configuration
    through groupby — and validates the total from the stream itself, so
    lazily produced configurations work without len()."""
    class LazyConfiguration(ProtocolSpec):
        def initial_configuration(self, n):
            return (
                "informed" if index < 3 else "susceptible" for index in range(n)
            )

    protocol = LazyConfiguration(
        name="lazy-epidemic",
        initial="susceptible",
        rules=lambda r, i: (r, i),
        outputs=lambda s: "F",
    )
    assert initial_count_items(protocol, 10) == [("informed", 3), ("susceptible", 7)]


def test_streamed_fallback_validates_length():
    class WrongLength(ProtocolSpec):
        def initial_configuration(self, n):
            return ["x"] * (n + 2)

    protocol = WrongLength(
        name="wrong-length", initial="x", rules=lambda r, i: (r, i), outputs=lambda s: "F"
    )
    with pytest.raises(ProtocolError, match="length"):
        initial_count_items(protocol, 8)
