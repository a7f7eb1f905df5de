"""Churn and fault models: the dynamic-population half of a scenario.

Both models are small frozen dataclasses of per-interaction event
probabilities, validated at construction.  They *describe* dynamics; the
runtime bookkeeping (who is alive, who crashed, event counters) lives in
:class:`repro.scenarios.runtime.ScenarioRuntime`, and the engines consult
that during stepping.

The event semantics (documented here once, implemented in the sequential
engine's scenario loop):

* **churn join** — with probability ``join_rate`` per interaction, one
  departed agent slot rejoins in the protocol's *initial* state (the
  population array has fixed capacity ``n``; churn moves agents in and out
  of the alive set, it never grows the array).
* **churn leave** — with probability ``leave_rate`` per interaction, one
  uniformly random alive agent departs (it may rejoin later).
* **crash-stop** — with probability ``crash_rate``, one uniformly random
  alive agent crashes and never interacts (or rejoins) again.
* **message drop** — each interaction is a no-op with probability
  ``drop_p`` (time still advances, matching a lost message on a real link).
* **Byzantine** — a fixed fraction of agents is adversarial; whenever one
  participates, the responder's post-transition state is replaced by a
  state drawn uniformly over the states registered in the protocol's table
  (the whole reachable closure for GSU19 and GS18, whose tables are laid
  out over it; the states discovered so far for a lazily compiled one).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["ChurnModel", "FaultModel"]


def _check_probability(name: str, value: float) -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(
            f"{name} must be a probability in [0, 1], got {value}"
        )
    return value


@dataclass(frozen=True)
class ChurnModel:
    """Poisson join/leave churn: per-interaction departure/rejoin rates."""

    join_rate: float = 0.0
    leave_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("join_rate", self.join_rate)
        _check_probability("leave_rate", self.leave_rate)

    @property
    def is_null(self) -> bool:
        return self.join_rate == 0.0 and self.leave_rate == 0.0

    @classmethod
    def none(cls) -> "ChurnModel":
        return cls()

    @classmethod
    def symmetric(cls, rate: float) -> "ChurnModel":
        """Equal join and leave rates — population size stays stationary."""
        return cls(join_rate=rate, leave_rate=rate)

    def describe(self) -> dict:
        return {"join_rate": self.join_rate, "leave_rate": self.leave_rate}


@dataclass(frozen=True)
class FaultModel:
    """Crash-stop, message-drop and Byzantine fault rates."""

    crash_rate: float = 0.0
    drop_p: float = 0.0
    byzantine_fraction: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("crash_rate", self.crash_rate)
        _check_probability("drop_p", self.drop_p)
        _check_probability("byzantine_fraction", self.byzantine_fraction)

    @property
    def is_null(self) -> bool:
        return (
            self.crash_rate == 0.0
            and self.drop_p == 0.0
            and self.byzantine_fraction == 0.0
        )

    @classmethod
    def none(cls) -> "FaultModel":
        return cls()

    @classmethod
    def parse(cls, spec: str) -> "FaultModel":
        """Parse a CLI fault specification like ``"crash:1e-4,drop:0.1"``.

        Recognised keys: ``crash`` (crash_rate), ``drop`` (drop_p),
        ``byzantine`` (byzantine_fraction).
        """
        keys = {
            "crash": "crash_rate",
            "drop": "drop_p",
            "byzantine": "byzantine_fraction",
        }
        values = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, raw = part.partition(":")
            field = keys.get(name.strip())
            if field is None or not raw:
                raise ConfigurationError(
                    f"bad fault specification {part!r}; expected "
                    "comma-separated key:value pairs with keys "
                    f"{', '.join(sorted(keys))} (e.g. 'crash:1e-4,drop:0.1')"
                )
            try:
                values[field] = float(raw)
            except ValueError:
                raise ConfigurationError(
                    f"bad fault rate {raw!r} in {part!r}"
                ) from None
        if not values:
            raise ConfigurationError(
                f"empty fault specification {spec!r}"
            )
        return cls(**values)

    def describe(self) -> dict:
        return {
            "crash_rate": self.crash_rate,
            "drop_p": self.drop_p,
            "byzantine_fraction": self.byzantine_fraction,
        }
