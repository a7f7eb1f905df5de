"""Approximate mean-field ODE engine (deterministic expected-count dynamics).

:class:`MeanFieldEngine` integrates the protocol's *expected-count* ordinary
differential equation instead of simulating interactions.  Writing ``y_s``
for the expected fraction of agents in state ``s``, one scheduler step picks
the ordered pair ``(a, b)`` with probability ``x_a (x_b - [a = b]) /
(n (n - 1))`` and applies the deterministic transition ``δ(a, b) = (a', b')``
— so over ``n`` interactions (one parallel-time unit ``τ``) the expected
fractions drift by

.. math::

    \\frac{dy}{dτ} = \\sum_{a,b} w_{ab} \\, Δ_{ab}, \\qquad
    w_{ab} = \\frac{y_a (y_b - δ_{ab}/n)}{1 - 1/n},

where ``Δ_ab`` moves one unit of mass ``a → a'`` and ``b → b'``.  The drift
is assembled directly from the shared compiled
:class:`~repro.engine.table.TransitionTable` IR: the active states' pair
block is pushed through :meth:`~repro.engine.table.TransitionTable.apply_block`
(compiling misses lazily, exactly like the stochastic engines) and the four
scatter sums reduce to ``np.bincount`` calls.  Per active-state-set the
channel structure (which pairs change which states) is cached, so repeated
evaluations cost four ``bincount`` reductions over the *effective* channels.
The cache is bounded in bytes, not entries: one entry of a ``k``-state
active set can hold up to ``5 * 8 * k^2`` bytes.

In the normalised form above the dynamics are independent of ``n`` (up to
the ``1/n`` finite-size correction), which is the entire point: a mean-field
GSU19 curve at ``n = 10^12`` costs the same as one at ``n = 10^3``, opening
instant ``n → ∞`` scaling figures.  The price is exactness — the ODE is the
``n → ∞`` fluid limit, correct for the *mean* occupancy up to ``O(1/√n)``
fluctuations (pinned against the exact engines by
``tests/test_engine_approx.py`` via :mod:`repro.analysis.accuracy`), and it
says nothing about distributions.  The engine is therefore **never**
auto-selected; request it explicitly with ``engine="meanfield"``.

Integration uses the embedded Bogacki–Shampine 3(2) Runge–Kutta pair with
proportional step-size control.  After every accepted step the fractions are
clipped to ``[0, 1]`` and renormalised, so the total mass ``Σ y = 1``
(equivalently ``Σ x = n``) is conserved exactly at every observation point.

The engine supports the full :class:`~repro.engine.base.BaseEngine` API:
``count_vector()`` (a deterministic largest-remainder rounding of the
expected counts, summing to exactly ``n``), compiled views, recorders,
convergence predicates, and bit-exact checkpoint/resume.  The ``rng``
argument is accepted for interface uniformity and ignored — the engine is
deterministic by construction.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.engine.base import BaseEngine
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike
from repro.errors import ConfigurationError
from repro.types import State

__all__ = ["MeanFieldEngine"]

#: Fractions below this are treated as unoccupied when assembling the drift:
#: the ODE makes every reachable state's mass positive, so without a floor
#: the active pair block would grow to the full state space squared.  Mass
#: below one part in 10^12 of the population is far beneath the engine's
#:  O(1/sqrt(n)) accuracy contract.
_DEFAULT_ACTIVE_FLOOR = 1e-12

#: Step-size controller clamps (standard embedded-RK practice).
_STEP_SAFETY = 0.9
_STEP_MIN_FACTOR = 0.2
_STEP_MAX_FACTOR = 5.0
_MIN_STEP = 1e-9

#: Channel-structure cache bound in bytes (keys included).  The cache is
#: emptied when an entry would take it past the bound, and an entry larger
#: than the bound is used once and not kept.
_CHANNEL_CACHE_BYTES = 64 << 20


class MeanFieldEngine(BaseEngine):
    """Deterministic integration of the protocol's expected-count ODE."""

    exact = False

    def __init__(
        self,
        protocol: PopulationProtocol,
        n: int,
        rng: RngLike = None,
        *,
        rtol: float = 1e-6,
        atol: float = 1e-9,
        active_floor: float = _DEFAULT_ACTIVE_FLOOR,
    ) -> None:
        super().__init__(protocol, n, rng)
        if rtol <= 0 or atol <= 0:
            raise ConfigurationError(
                f"solver tolerances must be positive, got rtol={rtol}, atol={atol}"
            )
        if not 0 <= active_floor < 1:
            raise ConfigurationError(
                f"active_floor must lie in [0, 1), got {active_floor}"
            )
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.active_floor = float(active_floor)
        # The ODE runs on the fractions ``_y``; the ledger's counts keep the
        # initial configuration they were read from (count_vector rounds
        # ``_y``), and its seen mask tracks every state above the floor.
        self._count_initial()
        self._y = self._counts[: len(self.encoder)] / n
        self._h = 0.01  # parallel-time units; adapted per step
        self._channels: Dict[bytes, tuple] = {}
        self._channel_bytes = 0

    # ------------------------------------------------------------------
    # Drift assembly from the compiled IR
    # ------------------------------------------------------------------
    def _ensure_width(self) -> None:
        missing = len(self.encoder) - self._y.shape[0]
        if missing > 0:
            self._y = np.concatenate(
                [self._y, np.zeros(missing, dtype=np.float64)]
            )

    def _channel_structure(self, active: np.ndarray) -> tuple:
        """Effective transition channels among ``active`` state ids.

        Returns ``(responders, initiators, out_r, out_i, eff)``: ``eff``
        indexes, in the flattened ``k x k`` active pair block, the channels
        whose transition changes at least one endpoint, and the other four
        arrays hold those channels' state ids before and after.  Cached per
        active set — the expensive parts (the pair-block LUT gather and the
        change masks) are invariant while the active set is stable, which it
        is for long stretches of a trajectory.
        """
        key = active.tobytes()
        cached = self._channels.get(key)
        if cached is not None:
            return cached
        k = active.shape[0]
        responders = np.repeat(active, k)
        initiators = np.tile(active, k)
        out_r, out_i = self.table.apply_block(responders, initiators)
        eff = np.flatnonzero((out_r != responders) | (out_i != initiators))
        structure = (responders[eff], initiators[eff], out_r[eff], out_i[eff], eff)
        size = len(key) + sum(array.nbytes for array in structure)
        if size <= _CHANNEL_CACHE_BYTES:
            if self._channel_bytes + size > _CHANNEL_CACHE_BYTES:
                self._channels.clear()
                self._channel_bytes = 0
            self._channels[key] = structure
            self._channel_bytes += size
        return structure

    def _drift(self, y: np.ndarray) -> np.ndarray:
        """``dy/dτ`` assembled from the packed LUT (τ in parallel time)."""
        active = np.flatnonzero(y > self.active_floor)
        if active.size == 0:  # pragma: no cover - defensive (mass is conserved)
            return np.zeros_like(y)
        responders, initiators, out_r, out_i, eff = self._channel_structure(
            active
        )
        self._ensure_width()
        size = self._y.shape[0]
        ya = y[active]
        # Ordered-pair weights with the finite-n without-replacement
        # correction; clipped at 0 (a fraction below 1/n would otherwise
        # produce a negative rate for the diagonal channel).
        n = float(self.n)
        weights = np.outer(ya, ya)
        diagonal = np.arange(active.size)
        weights[diagonal, diagonal] = np.clip(ya * (ya - 1.0 / n), 0.0, None)
        weights /= 1.0 - 1.0 / n
        flat = weights.ravel()[eff]
        drift = np.bincount(out_r, weights=flat, minlength=size)
        drift += np.bincount(out_i, weights=flat, minlength=size)
        drift -= np.bincount(responders, weights=flat, minlength=size)
        drift -= np.bincount(initiators, weights=flat, minlength=size)
        return drift

    @staticmethod
    def _pad(array: np.ndarray, size: int) -> np.ndarray:
        if array.shape[0] >= size:
            return array
        return np.concatenate([array, np.zeros(size - array.shape[0])])

    # ------------------------------------------------------------------
    # Embedded Bogacki–Shampine 3(2) step
    # ------------------------------------------------------------------
    def _advance(self, span: float) -> None:
        """Integrate the ODE forward by ``span`` parallel-time units."""
        remaining = span
        h = self._h
        while remaining > 1e-15:
            h = min(h, remaining)
            k1 = self._drift(self._y)
            size = max(k1.shape[0], self._y.shape[0])
            y0 = self._pad(self._y, size)
            k1 = self._pad(k1, size)
            k2 = self._drift(y0 + 0.5 * h * k1)
            size = max(size, k2.shape[0])
            y0, k1, k2 = (self._pad(a, size) for a in (y0, k1, k2))
            k3 = self._drift(y0 + 0.75 * h * k2)
            size = max(size, k3.shape[0])
            y0, k1, k2, k3 = (self._pad(a, size) for a in (y0, k1, k2, k3))
            y1 = y0 + h * (2.0 / 9.0 * k1 + 1.0 / 3.0 * k2 + 4.0 / 9.0 * k3)
            k4 = self._drift(y1)
            size = max(size, k4.shape[0])
            y0, y1, k1, k2, k3, k4 = (
                self._pad(a, size) for a in (y0, y1, k1, k2, k3, k4)
            )
            # 2nd-order embedded solution; the difference estimates the
            # local error of the 3rd-order step.
            z1 = y0 + h * (
                7.0 / 24.0 * k1 + 0.25 * k2 + 1.0 / 3.0 * k3 + 0.125 * k4
            )
            scale = self.atol + self.rtol * np.maximum(
                np.abs(y0), np.abs(y1)
            )
            error = float(
                np.sqrt(np.mean(np.square((y1 - z1) / scale)))
            )
            if error <= 1.0 or h <= _MIN_STEP:
                # Accept: project back onto the probability simplex so the
                # population (Σ y = 1, i.e. Σ x = n) is conserved exactly.
                np.clip(y1, 0.0, None, out=y1)
                total = float(y1.sum())
                if total > 0.0:
                    y1 /= total
                self._y = y1
                self._ensure_capacity()
                self._seen[: y1.shape[0]][y1 > self.active_floor] = 1
                remaining -= h
            factor = _STEP_SAFETY * (
                error ** (-1.0 / 3.0) if error > 0.0 else _STEP_MAX_FACTOR
            )
            h = max(
                _MIN_STEP,
                h * min(_STEP_MAX_FACTOR, max(_STEP_MIN_FACTOR, factor)),
            )
        self._h = h

    def _perform_steps(self, count: int) -> None:
        if count <= 0:
            return
        self._advance(count / self.n)
        self.interactions += count

    # ------------------------------------------------------------------
    # Count projection (the observation pipeline's substrate)
    # ------------------------------------------------------------------
    def expected_counts(self) -> np.ndarray:
        """Expected (float) counts by state id — the engine's native state."""
        self._ensure_width()
        return self._y * self.n

    def expected_state_counts(self) -> Dict[State, float]:
        """Expected counts keyed by decoded state (non-negligible only)."""
        decode = self.encoder.decode
        return {
            decode(int(sid)): float(self._y[sid] * self.n)
            for sid in np.flatnonzero(self._y > self.active_floor)
        }

    def count_vector(self) -> np.ndarray:
        """Largest-remainder rounding of the expected counts.

        Deterministic (ties broken by state id) and sums to exactly ``n``,
        so convergence predicates, recorders and ``counts_by_output`` see a
        coherent integer configuration.
        """
        self._ensure_width()
        expected = self._y * self.n
        floors = np.floor(expected)
        counts = floors.astype(np.int64)
        shortfall = int(self.n - counts.sum())
        if shortfall > 0:
            remainders = expected - floors
            # argsort is stable, so equal remainders resolve by state id.
            order = np.argsort(-remainders, kind="stable")
            counts[order[:shortfall]] += 1
        elif shortfall < 0:  # pragma: no cover - defensive (floors sum <= n)
            order = np.argsort(expected - floors, kind="stable")
            counts[order[: -shortfall]] -= 1
        return counts

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _state_snapshot(self) -> dict:
        return {
            "fractions": self._y.tolist(),
            "step_size": self._h,
        }

    def _state_restore(self, payload: dict) -> None:
        fractions = np.asarray(payload["fractions"], dtype=np.float64)
        missing = len(self.encoder) - fractions.shape[0]
        if missing > 0:
            fractions = np.concatenate([fractions, np.zeros(missing)])
        self._y = fractions
        self._h = float(payload["step_size"])
        self._channels.clear()
        self._channel_bytes = 0
