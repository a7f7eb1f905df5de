"""Protocol parameters for the GSU19 leader-election protocol.

Like every known space-efficient leader-election population protocol, GSU19
is *non-uniform*: the transition function is allowed to depend on a rough
estimate of the population size ``n`` (the paper notes this explicitly — the
knowledge is needed "e.g. to set the size of the phase clock").  All such
dependencies are collected in :class:`GSUParams`:

* ``gamma`` — the phase-clock modulus ``Γ`` (a constant in the paper; the
  default here is calibrated so that, at the population sizes a Python
  simulation can reach, one clock round comfortably contains a one-way
  epidemic among the leader sub-population),
* ``phi`` — the highest coin level ``Φ``; the paper uses
  ``⌊log log n⌋ − 3``, a constant offset tuned for asymptotically large
  ``n``.  We use ``max(1, ⌊log₂ log₂ n⌋ − 2)``, which keeps the junta size
  inside the ``[n^0.45, n^0.77]`` window of Lemma 5.3 at simulable sizes
  (the ``lemma53`` experiment measures the window),
* ``psi`` — the drag-counter range ``Ψ = Θ(log log n)``, chosen so that
  ``4^Ψ ≳ log n`` and hence the slowing-down counter covers the first
  ``Θ(n log² n)`` interactions as required in Section 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["GSUParams", "DEFAULT_GAMMA"]

#: Default phase-clock modulus.  Must be even; see the class docstring.
DEFAULT_GAMMA = 24


@dataclass(frozen=True)
class GSUParams:
    """All size-dependent parameters of the GSU19 protocol.

    Attributes
    ----------
    n_hint:
        The population-size estimate the parameters were derived from.
    gamma:
        Phase-clock modulus ``Γ`` (even, ≥ 4).
    phi:
        Highest coin level ``Φ`` (≥ 1).  Coins reaching level ``Φ`` form the
        junta that drives the phase clock.
    psi:
        Highest drag value ``Ψ`` (≥ 1) for inhibitors and leader candidates.
    """

    n_hint: int
    gamma: int = DEFAULT_GAMMA
    phi: int = 1
    psi: int = 2

    def __post_init__(self) -> None:
        if self.n_hint < 4:
            raise ConfigurationError(
                f"the protocol needs a population of at least 4 agents, got hint "
                f"{self.n_hint}"
            )
        if self.gamma < 4 or self.gamma % 2 != 0:
            raise ConfigurationError(
                f"gamma must be an even integer >= 4, got {self.gamma}"
            )
        if self.phi < 1:
            raise ConfigurationError(f"phi must be >= 1, got {self.phi}")
        if self.psi < 1:
            raise ConfigurationError(f"psi must be >= 1, got {self.psi}")

    # ------------------------------------------------------------------
    @classmethod
    def from_population_size(
        cls,
        n: int,
        *,
        gamma: int | None = None,
        phi: int | None = None,
        psi: int | None = None,
    ) -> "GSUParams":
        """Derive parameters from (an estimate of) the population size.

        Any of the three parameters can be overridden explicitly, which the
        calibration experiments and tests use.
        """
        if n < 4:
            raise ConfigurationError(
                f"the protocol needs a population of at least 4 agents, got {n}"
            )
        log_n = math.log2(max(4, n))
        loglog_n = math.log2(log_n)
        derived_phi = max(1, int(math.floor(loglog_n)) - 2)
        derived_psi = max(2, int(math.ceil(loglog_n / 2.0)) + 1)
        return cls(
            n_hint=n,
            gamma=DEFAULT_GAMMA if gamma is None else gamma,
            phi=derived_phi if phi is None else phi,
            psi=derived_psi if psi is None else psi,
        )

    # ------------------------------------------------------------------
    @property
    def initial_cnt(self) -> int:
        """Initial value of the leaders' round counter: ``2Φ + 3``.

        One larger than the number of coin applications (``2Φ + 2``), so
        that the very first round — during which roles and coin levels are
        still stabilising — performs no coin flips.
        """
        return 2 * self.phi + 3

    @property
    def coin_schedule_length(self) -> int:
        """Total number of biased-coin applications in fast elimination."""
        return 2 * self.phi + 2

    def coin_level_for_cnt(self, cnt: int) -> int:
        """The coin level ``γ(cnt)`` used while the round counter equals ``cnt``.

        The schedule, read in the order the protocol consumes it (``cnt``
        counts *down* from ``2Φ+2``), applies coin ``Φ`` four times and then
        each of ``Φ−1, Φ−2, …, 1`` twice; ``cnt = 0`` (final elimination)
        uses the almost-fair level-0 coin.
        """
        if cnt < 0:
            raise ConfigurationError(f"cnt must be non-negative, got {cnt}")
        if cnt == 0:
            return 0
        if cnt > self.coin_schedule_length:
            raise ConfigurationError(
                f"cnt={cnt} exceeds the schedule length {self.coin_schedule_length}"
            )
        if cnt <= 2 * self.phi - 2:
            return (cnt + 1) // 2
        return self.phi

    def coin_schedule(self) -> list:
        """The full schedule ``γ`` as a list indexed by ``cnt = 1 … 2Φ+2``."""
        return [self.coin_level_for_cnt(cnt) for cnt in range(1, self.coin_schedule_length + 1)]

    # ------------------------------------------------------------------
    @property
    def half_gamma(self) -> int:
        """``Γ/2`` — the boundary between the early and late half of a round."""
        return self.gamma // 2

    def describe(self) -> str:
        """Human-readable parameter summary used in reports."""
        return (
            f"GSUParams(n_hint={self.n_hint}, gamma={self.gamma}, phi={self.phi}, "
            f"psi={self.psi}, initial_cnt={self.initial_cnt}, "
            f"schedule={self.coin_schedule()})"
        )
