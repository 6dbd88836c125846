"""Exception hierarchy for the DMap reproduction.

All library-raised exceptions derive from :class:`DMapError` so callers can
catch a single base class at API boundaries.
"""

from __future__ import annotations


class DMapError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(DMapError):
    """A component was constructed or invoked with invalid parameters."""


class GUIDError(DMapError):
    """A GUID could not be parsed or is malformed."""


class AddressError(DMapError):
    """A network address or prefix is malformed or out of range."""


class PrefixTableError(DMapError):
    """An operation on the global prefix table failed."""


class EmptyPrefixTableError(PrefixTableError):
    """A lookup was attempted against a prefix table with no announcements."""


class MappingNotFoundError(DMapError):
    """A GUID lookup reached a host that does not store the mapping."""

    def __init__(self, guid: object, where: object = None) -> None:
        self.guid = guid
        self.where = where
        suffix = f" at AS {where}" if where is not None else ""
        super().__init__(f"no mapping stored for GUID {guid!r}{suffix}")


class LookupFailedError(DMapError):
    """Every replica failed to answer a lookup (all K copies lost/stale).

    Carries the time already spent so callers can account for it.
    """

    def __init__(self, guid: object, elapsed_ms: float, attempts: int) -> None:
        self.guid = guid
        self.elapsed_ms = elapsed_ms
        self.attempts = attempts
        super().__init__(
            f"lookup of {guid!r} failed after {attempts} attempts "
            f"({elapsed_ms:.1f} ms elapsed)"
        )


class TopologyError(DMapError):
    """The AS-level topology is malformed or missing required attributes."""


class RoutingError(TopologyError):
    """No route exists between two ASs, or a routing query was invalid."""


class WorkerError(DMapError):
    """A forked worker process exited with a non-zero code."""


class SimulationError(DMapError):
    """The discrete-event simulation reached an inconsistent state."""


class WorkloadError(DMapError):
    """A workload generator was configured or driven incorrectly."""


class WireProtocolError(DMapError):
    """A wire frame could not be encoded or decoded (:mod:`repro.net`)."""


class ClusterError(DMapError):
    """A live serving cluster was configured or driven incorrectly."""


class WriteFailedError(DMapError):
    """A live insert/update did not reach every replica (:mod:`repro.net`).

    Carries the replicas that did acknowledge so callers can reason
    about partial writes.
    """

    def __init__(self, guid: object, acked: int, expected: int) -> None:
        self.guid = guid
        self.acked = acked
        self.expected = expected
        super().__init__(
            f"write of {guid!r} acknowledged by {acked}/{expected} replicas"
        )
