"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so callers can catch a single base class.  The
sub-classes partition errors into configuration problems, protocol
definition problems, and simulation-time problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "TransitionError",
    "SimulationError",
    "ConvergenceError",
    "CheckpointError",
    "ExperimentError",
    "SweepError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A parameter object or experiment configuration is invalid.

    Raised, for example, when a population size is non-positive, a phase
    clock modulus is too small, or a sweep specification is empty.
    """


class ProtocolError(ReproError):
    """A protocol definition is malformed.

    Raised when a protocol's initial configuration does not match the
    population size, when its output map rejects a reachable state, or when
    a transition returns states of an unexpected type.
    """


class TransitionError(ProtocolError):
    """A transition function misbehaved for a specific pair of states."""

    def __init__(self, responder, initiator, message: str) -> None:
        super().__init__(
            f"transition failed for responder={responder!r}, "
            f"initiator={initiator!r}: {message}"
        )
        self.responder = responder
        self.initiator = initiator


class SimulationError(ReproError, RuntimeError):
    """The simulation engine reached an inconsistent internal state."""


class ConvergenceError(SimulationError):
    """A run exceeded its interaction budget without satisfying its
    convergence predicate."""

    def __init__(self, interactions: int, message: str = "") -> None:
        text = f"no convergence after {interactions} interactions"
        if message:
            text = f"{text}: {message}"
        super().__init__(text)
        self.interactions = interactions


class CheckpointError(SimulationError):
    """A snapshot could not be restored or a checkpoint file is unusable.

    Raised when a snapshot targets a different engine class, protocol or
    population size than the one it is being restored into, when the
    registered state-identifier layout cannot be reproduced, when a
    checkpoint file has an unknown format or version or fails its checksum,
    or when a checkpoint cannot be read or written.
    """


class ExperimentError(ReproError):
    """An experiment harness failed (unknown experiment id, bad output path,
    inconsistent aggregation, ...)."""


class SweepError(ExperimentError):
    """One or more cells of a sweep failed.

    The sweep scheduler (:func:`repro.engine.parallel.run_many`) never lets
    a failing cell abandon the others: every remaining cell still runs,
    every completed cell is recorded (and, with a store, persisted) before
    this exception is raised.  ``failures`` lists the failed cells as
    ``(n, seed, exception)`` triples; ``points`` carries the completed
    :class:`~repro.engine.parallel.SweepPoint` objects so callers that
    catch the error lose nothing even without a store.
    """

    def __init__(self, failures, points) -> None:
        self.failures = list(failures)
        self.points = list(points)
        n, seed, cause = self.failures[0]
        super().__init__(
            f"{len(self.failures)} of "
            f"{len(self.failures) + len(self.points)} sweep cells failed "
            f"(completed cells were recorded); first failure at n={n}, "
            f"seed={seed}: {cause!r}"
        )
