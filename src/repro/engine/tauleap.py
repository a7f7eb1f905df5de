"""Approximate tau-leaping count-space engine.

:class:`TauLeapEngine` advances the count vector by *leaps* of many
interactions at once: for a leap of ``τ`` interactions it draws, for every
effective transition channel ``(a, b) → (a', b')`` among the occupied
states, an approximate number of firings ``K_ab ~ Binomial(τ, p_ab)`` with
``p_ab = x_a (x_b - [a = b]) / (n (n - 1))`` — the exact probability that a
single scheduler step picks the ordered pair ``(a, b)`` — and applies all
firings in one shot.  This is the classic Gillespie/Cao tau-leaping scheme
specialised to population protocols, where every channel fires exactly one
ordered pair so the per-interaction channel probabilities sum to at most 1.

The approximation is that the ``K_ab`` are drawn from the *start-of-leap*
counts: channel probabilities are frozen for the duration of the leap
instead of being updated after every interaction (which is what the exact
:class:`~repro.engine.count_batch.CountBatchEngine` effectively does via its
collision-aware batching).  The error is controlled two ways:

- **Leap selection** (Cao–Gillespie): ``τ`` is chosen so that no occupied
  state's count is expected to move by more than a fraction ``epsilon`` of
  its current value (with an absolute floor of 1), using the per-interaction
  drift and a conservative variance proxy assembled from the same four
  ``bincount`` reductions that apply the leap.
- **Negative-count rejection**: a leap that would drive any count negative
  is rejected wholesale and retried with ``τ`` halved (fresh randomness),
  so the engine never emits a negative count.

Binomial draws (rather than the textbook Poisson) bound every channel's
firing count by ``τ``, which keeps overshoot tame in the small-count tails
where Poisson leaping misbehaves; for the small-probability channels that
dominate large populations the two are indistinguishable.

Population size is conserved exactly: every firing moves one (responder,
initiator) pair to its successor pair, so the four scatter-adds cancel in
total mass.  Accuracy against the exact engines (KS agreement on output
censuses and convergence-time quantiles) is pinned by
``tests/test_engine_approx.py`` via :mod:`repro.analysis.accuracy`.  Like
every approximate engine the tau-leaper is **never** auto-selected; request
it explicitly with ``engine="tauleap"``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.engine.base import BaseEngine
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike, make_rng, restore_rng_state, rng_state
from repro.errors import ConfigurationError, SimulationError

__all__ = ["TauLeapEngine"]

#: Default leap-size control parameter: no state's count should be expected
#: to change by more than this fraction within one leap.  0.03 is the
#: standard "accurate" setting from the tau-leaping literature.
_DEFAULT_EPSILON = 0.03

#: Consecutive whole-leap rejections before giving up.  Rejection halves τ
#: down to 1, where a leap is a near-exact single-pair step, so hitting this
#: bound indicates a bug rather than an unlucky stream.
_MAX_REJECTIONS = 1000

#: Channel-structure cache bound (one entry per distinct occupied set).
_CHANNEL_CACHE_MAX = 128


class TauLeapEngine(BaseEngine):
    """Approximate count-space engine with adaptive tau-leaping."""

    exact = False

    def __init__(
        self,
        protocol: PopulationProtocol,
        n: int,
        rng: RngLike = None,
        *,
        epsilon: float = _DEFAULT_EPSILON,
    ) -> None:
        super().__init__(protocol, n, rng)
        if not 0 < epsilon < 1:
            raise ConfigurationError(
                f"epsilon must lie in (0, 1), got {epsilon}"
            )
        self.epsilon = float(epsilon)
        self.rng = make_rng(rng)
        self._count_initial()
        self._channels: Dict[bytes, tuple] = {}

    # ------------------------------------------------------------------
    # Channel structure from the compiled IR
    # ------------------------------------------------------------------
    def _channel_structure(self, occupied: np.ndarray) -> tuple:
        """Effective channels among ``occupied`` ids (cached per set).

        Returns ``(responders, initiators, out_r, out_i)`` flat arrays
        restricted to the pairs whose transition changes at least one
        endpoint; identity channels cannot move counts, so dropping them
        shrinks both the draws and the scatter-adds.
        """
        key = occupied.tobytes()
        cached = self._channels.get(key)
        if cached is not None:
            return cached
        k = occupied.shape[0]
        responders = np.repeat(occupied, k)
        initiators = np.tile(occupied, k)
        out_r, out_i = self.table.apply_block(responders, initiators)
        effective = (out_r != responders) | (out_i != initiators)
        structure = (
            responders[effective],
            initiators[effective],
            out_r[effective],
            out_i[effective],
        )
        if len(self._channels) >= _CHANNEL_CACHE_MAX:
            self._channels.clear()
        self._channels[key] = structure
        return structure

    def _channel_probabilities(
        self, responders: np.ndarray, initiators: np.ndarray
    ) -> np.ndarray:
        """Per-interaction firing probability of each effective channel."""
        counts = self._counts.astype(np.float64)
        x_r = counts[responders]
        x_i = counts[initiators]
        same = responders == initiators
        pairs = x_r * np.where(same, x_i - 1.0, x_i)
        n = float(self.n)
        return pairs / (n * (n - 1.0))

    # ------------------------------------------------------------------
    # Leap selection (Cao–Gillespie) and execution
    # ------------------------------------------------------------------
    def _choose_tau(self, remaining: int) -> int:
        occupied = np.flatnonzero(self._counts > 0)
        structure = self._channel_structure(occupied)
        responders, initiators, out_r, out_i = structure
        if responders.size == 0:
            # Silent configuration: no transition can fire, so any leap is
            # exact.
            return remaining
        probs = self._channel_probabilities(responders, initiators)
        self._ensure_capacity()
        size = self._counts.shape[0]
        inflow = np.bincount(out_r, weights=probs, minlength=size)
        inflow += np.bincount(out_i, weights=probs, minlength=size)
        outflow = np.bincount(responders, weights=probs, minlength=size)
        outflow += np.bincount(initiators, weights=probs, minlength=size)
        drift = inflow - outflow
        # Conservative variance proxy: per channel each endpoint moves by at
        # most 2, so Var[Δx_j] per interaction is bounded by 2 × the total
        # in+out activity touching j.  Overestimating variance only shrinks
        # τ — it costs speed, never accuracy.
        variance = 2.0 * (inflow + outflow)
        x = self._counts[occupied].astype(np.float64)
        bound = np.maximum(self.epsilon * x, 1.0)
        with np.errstate(divide="ignore"):
            by_drift = bound / np.abs(drift[occupied])
            by_variance = np.square(bound) / variance[occupied]
        tau = float(np.min(np.minimum(by_drift, by_variance)))
        if not np.isfinite(tau):
            return remaining
        return int(min(max(tau, 1.0), float(remaining)))

    def _attempt_leap(self, tau: int) -> bool:
        """Draw and apply one leap of ``tau`` interactions; False on reject."""
        occupied = np.flatnonzero(self._counts > 0)
        responders, initiators, out_r, out_i = self._channel_structure(
            occupied
        )
        if responders.size == 0:
            return True
        probs = self._channel_probabilities(responders, initiators)
        firings = self.rng.binomial(tau, np.clip(probs, 0.0, 1.0))
        self._ensure_capacity()
        size = self._counts.shape[0]
        delta = np.bincount(out_r, weights=firings, minlength=size)
        delta += np.bincount(out_i, weights=firings, minlength=size)
        delta -= np.bincount(responders, weights=firings, minlength=size)
        delta -= np.bincount(initiators, weights=firings, minlength=size)
        updated = self._counts + delta.astype(np.int64)
        if np.any(updated < 0):
            return False
        self._counts[:] = updated
        fired = firings > 0
        self._seen[out_r[fired]] = 1
        self._seen[out_i[fired]] = 1
        return True

    def _perform_steps(self, count: int) -> None:
        remaining = int(count)
        rejections = 0
        while remaining > 0:
            tau = self._choose_tau(remaining)
            while not self._attempt_leap(tau):
                rejections += 1
                if rejections >= _MAX_REJECTIONS:
                    raise SimulationError(
                        f"tau-leap rejected {rejections} consecutive leaps "
                        f"(protocol {self.protocol.name!r}, n={self.n}); "
                        "this indicates a bug in the leap bounds"
                    )
                tau = max(1, tau // 2)
            rejections = 0
            remaining -= tau
            self.interactions += tau

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def _state_snapshot(self) -> dict:
        return {
            "counts": self.count_vector().tolist(),
            "rng": rng_state(self.rng),
        }

    def _state_restore(self, payload: dict) -> None:
        counts = np.asarray(payload["counts"], dtype=np.int64)
        self._counts[:] = 0
        self._counts[: counts.shape[0]] = counts
        restore_rng_state(self.rng, payload["rng"])
        self._channels.clear()
