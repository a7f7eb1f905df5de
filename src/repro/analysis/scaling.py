"""Growth-model fitting for convergence times.

The central quantitative question of the reproduction is: *how does the
measured parallel time grow with* ``n``?  The paper's protocol is
``Θ(log n · log log n)`` in expectation, GS18 is ``Θ(log² n)``, the slow
protocol ``Θ(n)``.  This module fits measured ``(n, time)`` points against a
small library of one-parameter growth models ``T(n) = c · g(n)`` by least
squares and ranks the models by residual error, so experiments can report
which shape explains the data best (with the caveat that the
polylogarithmic shapes are hard to distinguish at simulable population
sizes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["GrowthModel", "GROWTH_MODELS", "FitResult", "fit_growth_model", "rank_models"]


@dataclass(frozen=True)
class GrowthModel:
    """A one-parameter growth model ``T(n) = c · g(n)``."""

    name: str
    description: str
    shape: Callable[[float], float]

    def evaluate(self, n: float, constant: float = 1.0) -> float:
        """``c · g(n)``."""
        return constant * self.shape(float(n))


def _log2(n: float) -> float:
    return math.log2(max(2.0, n))


GROWTH_MODELS: Dict[str, GrowthModel] = {
    "log": GrowthModel("log", "c · log n", lambda n: _log2(n)),
    "loglog": GrowthModel("loglog", "c · log log n", lambda n: math.log2(max(2.0, _log2(n)))),
    "log_loglog": GrowthModel(
        "log_loglog", "c · log n · log log n", lambda n: _log2(n) * math.log2(max(2.0, _log2(n)))
    ),
    "log2": GrowthModel("log2", "c · log² n", lambda n: _log2(n) ** 2),
    "log3": GrowthModel("log3", "c · log³ n", lambda n: _log2(n) ** 3),
    "sqrt": GrowthModel("sqrt", "c · √n", lambda n: math.sqrt(n)),
    "linear": GrowthModel("linear", "c · n", lambda n: float(n)),
    "nlogn": GrowthModel("nlogn", "c · n log n", lambda n: float(n) * _log2(n)),
}


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one growth model to measured points."""

    model: GrowthModel
    constant: float
    residual_rms: float
    relative_rms: float
    points: Tuple[Tuple[float, float], ...]

    def predict(self, n: float) -> float:
        """Model prediction at population size ``n``."""
        return self.model.evaluate(n, self.constant)

    def describe(self) -> str:
        return (
            f"{self.model.description} with c={self.constant:.3g} "
            f"(relative RMS error {self.relative_rms:.1%})"
        )


def fit_growth_model(
    ns: Sequence[float], times: Sequence[float], model: GrowthModel
) -> FitResult:
    """Least-squares fit of ``times ≈ c · g(ns)`` for a single model.

    The optimal constant for a one-parameter linear model is
    ``c = Σ g(n)·T(n) / Σ g(n)²``.
    """
    if len(ns) != len(times):
        raise ConfigurationError(
            f"ns and times must have equal length, got {len(ns)} and {len(times)}"
        )
    if len(ns) == 0:
        raise ConfigurationError("cannot fit a growth model to zero points")
    shapes = np.array([model.shape(float(n)) for n in ns], dtype=np.float64)
    observed = np.asarray(list(times), dtype=np.float64)
    denominator = float(np.dot(shapes, shapes))
    if denominator == 0.0:
        raise ConfigurationError(f"model {model.name} is degenerate on these sizes")
    constant = float(np.dot(shapes, observed) / denominator)
    predictions = constant * shapes
    residuals = observed - predictions
    residual_rms = float(np.sqrt(np.mean(residuals**2)))
    scale = float(np.mean(np.abs(observed))) or 1.0
    return FitResult(
        model=model,
        constant=constant,
        residual_rms=residual_rms,
        relative_rms=residual_rms / scale,
        points=tuple(zip([float(n) for n in ns], [float(t) for t in times])),
    )


def rank_models(
    ns: Sequence[float],
    times: Sequence[float],
    models: Sequence[str] = ("log", "log_loglog", "log2", "linear"),
) -> List[FitResult]:
    """Fit several growth models and return them sorted by relative RMS error."""
    results = []
    for name in models:
        if name not in GROWTH_MODELS:
            raise ConfigurationError(
                f"unknown growth model {name!r}; available: {sorted(GROWTH_MODELS)}"
            )
        results.append(fit_growth_model(ns, times, GROWTH_MODELS[name]))
    return sorted(results, key=lambda fit: fit.relative_rms)
