"""Closed-form predictions derived from the paper's lemmas.

Experiments compare measured quantities against the *shapes* the paper
proves.  The constants hidden in the asymptotic statements are not specified
by the paper, so every function below exposes the leading constant as an
argument (defaulting to 1) and the experiment layer fits or reports ratios
rather than absolute values.
"""

from __future__ import annotations

import math
from typing import List

from repro.coins.biased import expected_level_counts
from repro.coins.analysis import junta_bounds
from repro.errors import ConfigurationError

__all__ = [
    "predicted_level_counts",
    "predicted_junta_window",
    "predicted_drag_group_sizes",
    "predicted_drag_tick_parallel_time",
    "predicted_final_elimination_rounds",
    "predicted_expected_parallel_time",
    "predicted_whp_parallel_time",
    "predicted_uninitialised_fraction",
]


def _check_n(n: int) -> None:
    if n < 4:
        raise ConfigurationError(f"population size must be >= 4, got {n}")


def predicted_level_counts(n: int, phi: int) -> List[float]:
    """Idealised coin-level populations ``C_ℓ`` (Figure 1 / Lemmas 5.1–5.2)."""
    _check_n(n)
    return expected_level_counts(n, phi, coin_fraction=0.25)


def predicted_junta_window(n: int) -> tuple:
    """The ``[n^0.45, n^0.77]`` junta-size window of Lemma 5.3."""
    _check_n(n)
    return junta_bounds(n)


def predicted_drag_group_sizes(n: int, psi: int) -> List[float]:
    """Expected inhibitor sub-group sizes ``D_ℓ ≈ (n/4)·4^{-ℓ}`` (Lemma 7.1).

    The returned list gives, for ``ℓ = 0 … Ψ``, the expected number of
    inhibitors whose drag is exactly ``ℓ`` (the last entry absorbs the tail,
    i.e. counts inhibitors reaching ``Ψ``).
    """
    _check_n(n)
    if psi < 1:
        raise ConfigurationError(f"psi must be >= 1, got {psi}")
    total_inhibitors = n / 4.0
    sizes = []
    for level in range(psi):
        sizes.append(total_inhibitors * (0.25**level) * 0.75)
    sizes.append(total_inhibitors * (0.25**psi))
    return sizes


def predicted_drag_tick_parallel_time(level: int, n: int, constant: float = 1.0) -> float:
    """Predicted parallel time between drag ticks ``ℓ`` and ``ℓ+1``:
    ``Θ(4^ℓ log n)`` (Lemma 7.2)."""
    _check_n(n)
    if level < 0:
        raise ConfigurationError(f"level must be non-negative, got {level}")
    return constant * (4.0**level) * math.log2(n)


def predicted_final_elimination_rounds(n: int, constant: float = 1.0) -> float:
    """Expected rounds of final elimination: ``O(log log n)`` (Lemma 7.3).

    The proof bounds the expectation by ``log_{6/5}(c·log n) + O(1)``; we
    report that explicit form.
    """
    _check_n(n)
    candidates = max(2.0, constant * math.log2(n))
    return math.log(candidates) / math.log(6.0 / 5.0)


def predicted_expected_parallel_time(n: int, constant: float = 1.0) -> float:
    """The headline bound: expected parallel time ``O(log n · log log n)``."""
    _check_n(n)
    log_n = math.log2(n)
    return constant * log_n * max(1.0, math.log2(log_n))


def predicted_whp_parallel_time(n: int, constant: float = 1.0) -> float:
    """The with-high-probability bound: parallel time ``O(log² n)``."""
    _check_n(n)
    return constant * math.log2(n) ** 2


def predicted_uninitialised_fraction(n: int, constant: float = 1.0) -> float:
    """Fraction of agents never given a role: ``O(1/log n)`` (Lemma 4.1)."""
    _check_n(n)
    return constant / math.log2(n)
