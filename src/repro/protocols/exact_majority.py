"""The 4-state exact-majority protocol (Draief–Vojnović / Mertzios et al.).

States: strong opinions ``A`` and ``B``, weak opinions ``a`` and ``b``.
Rules (both agents may update)::

    A + B → a + b            (two strong opposites cancel out)
    a + B → b + B,  b + A → a + A    (weak agents follow strong ones)
    a + b, b + a → unchanged

With an initial majority the strong minority tokens are eventually all
cancelled and the surviving strong tokens convert every weak agent, so the
population stabilises on the exact initial majority (ties stabilise to the
all-weak configuration).  Expected stabilisation time is ``Θ(n log n)``
interactions for a constant-fraction majority and up to ``Θ(n² log n)`` for
a majority of one.  Included as an engine-validation workload with known
exact-correctness semantics.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.closure import cached_closure, reachable_closure
from repro.engine.protocol import FOLLOWER_OUTPUT, PopulationProtocol
from repro.errors import ConfigurationError

__all__ = ["ExactMajority"]

_STRONG_A = "A"
_STRONG_B = "B"
_WEAK_A = "a"
_WEAK_B = "b"


class ExactMajority(PopulationProtocol):
    """4-state exact majority with cancellation and conversion."""

    name = "exact-majority"

    def __init__(self, initial_a: int, initial_b: int) -> None:
        if initial_a < 0 or initial_b < 0:
            raise ConfigurationError("initial opinion counts must be non-negative")
        self.initial_a = initial_a
        self.initial_b = initial_b

    @classmethod
    def for_population(cls, n: int, a_fraction: float = 0.6) -> "ExactMajority":
        """Split ``n`` agents into ``A``/``B`` according to ``a_fraction``."""
        if not 0.0 <= a_fraction <= 1.0:
            raise ConfigurationError(
                f"a_fraction must lie in [0, 1], got {a_fraction}"
            )
        a = int(round(a_fraction * n))
        return cls(initial_a=a, initial_b=n - a)

    # ------------------------------------------------------------------
    def initial_state(self, n: int) -> str:
        return _STRONG_A

    def initial_configuration(self, n: int) -> Sequence[str]:
        self._check_population(n)
        return [_STRONG_A] * self.initial_a + [_STRONG_B] * self.initial_b

    def initial_counts(self, n: int):
        # O(k) form for the configuration-level engines (n = 10^7-10^8 runs
        # never materialise a per-agent list).
        self._check_population(n)
        return {_STRONG_A: self.initial_a, _STRONG_B: self.initial_b}

    def _check_population(self, n: int) -> None:
        if self.initial_a + self.initial_b != n:
            raise ConfigurationError(
                f"initial_a + initial_b = {self.initial_a + self.initial_b} "
                f"does not match n = {n}"
            )

    def transition(self, responder: str, initiator: str):
        # Cancellation of opposite strong opinions (both agents change).
        if responder == _STRONG_A and initiator == _STRONG_B:
            return _WEAK_A, _WEAK_B
        if responder == _STRONG_B and initiator == _STRONG_A:
            return _WEAK_B, _WEAK_A
        # Weak agents adopt the opinion of a strong initiator.
        if responder == _WEAK_A and initiator == _STRONG_B:
            return _WEAK_B, initiator
        if responder == _WEAK_B and initiator == _STRONG_A:
            return _WEAK_A, initiator
        return responder, initiator

    def output(self, state: str) -> str:
        if state in (_STRONG_A, _WEAK_A):
            return "A"
        if state in (_STRONG_B, _WEAK_B):
            return "B"
        return FOLLOWER_OUTPUT  # pragma: no cover - unreachable

    def state_closure(self):
        """The four opinions, with their LUT (the initial counts change no
        rule), cached in memory and on disk."""
        seeds = [_STRONG_A, _STRONG_B, _WEAK_A, _WEAK_B]
        return cached_closure(
            type(self), (), lambda: reachable_closure(self.transition, seeds)
        )

    # ------------------------------------------------------------------
    @staticmethod
    def majority_output(counts: dict) -> str:
        """The output the population currently reports ("A", "B" or "tie")."""
        a = counts.get("A", 0)
        b = counts.get("B", 0)
        if a and not b:
            return "A"
        if b and not a:
            return "B"
        return "tie"
