"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of the reproduction with a single handler while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "DimensionError",
    "ConstellationError",
    "DetectionError",
    "LinkSimulationError",
    "ExperimentError",
    "WorkerCrashError",
    "LoadShedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent or invalid parameters."""


class DimensionError(ReproError):
    """An array argument has an incompatible shape or size."""


class ConstellationError(ReproError):
    """A constellation was requested that the library cannot build."""


class DetectionError(ReproError):
    """A detector could not produce an estimate for the given input."""


class LinkSimulationError(ReproError):
    """A link-level simulation was configured inconsistently."""


class ExperimentError(ReproError):
    """An experiment harness failed to assemble its result."""


class WorkerCrashError(ReproError):
    """A worker process died (or hung) and recovery was exhausted.

    Raised by :class:`~repro.farm.coordinator.FarmCoordinator` — the
    only code that starts worker processes — when a worker fails its
    startup handshake, reports a deterministic error, sends a reply that
    is not JSON, or exceeds its restart budget.  ``worker`` names the
    worker slot that could not be kept alive.
    """

    def __init__(self, message: str, worker: "int | None" = None):
        super().__init__(message)
        self.worker = worker


class LoadShedError(ReproError):
    """An arrival was refused by the control plane's admission control.

    Raised through the arrival's future when the
    :class:`~repro.control.governor.ComputeGovernor` is shedding the
    cell's load: even the floor path budget cannot meet the slot
    deadline, so the frame is dropped explicitly rather than detected
    late.
    """

