"""High-level façade: a self-contained DMap deployment in one object.

The lower-level packages expose each subsystem separately (topology, BGP
table, resolver...).  :class:`DMapNetwork` wires them together for
application-style use — the API a MobilityFirst-style GNRS client would
see: register a named host, look names up, move hosts around.

    >>> from repro.experiments.common import get_environment
    >>> env = get_environment("small")
    >>> net = DMapNetwork(env.topology, env.table, k=5, seed=42)
    >>> phone = net.register_host("alice-phone")
    >>> hit = net.lookup("alice-phone", from_asn=net.random_asn())
    >>> net.move_host("alice-phone")            # handoff to a neighbour AS
    >>> net.lookup("alice-phone", from_asn=net.random_asn()).locators
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from .bgp.table import GlobalPrefixTable
from .core.guid import GUID, guid_like
from .core.resolver import DMapResolver, LookupResult, WriteResult
from .errors import ConfigurationError, DMapError
from .topology.graph import ASTopology
from .topology.routing import Router
from .workload.sources import SourceSampler


@dataclass
class HostRecord:
    """Bookkeeping for a registered host."""

    guid: GUID
    name: Optional[str]
    current_asn: int
    moves: int = 0


class DMapNetwork:
    """A complete DMap deployment: substrate + resolver + host registry."""

    def __init__(
        self,
        topology: ASTopology,
        table: GlobalPrefixTable,
        k: int = 5,
        seed: int = 0,
        **resolver_kwargs,
    ) -> None:
        self.topology = topology
        self.table = table
        self.router = Router(topology)
        self.resolver = DMapResolver(table, self.router, k=k, **resolver_kwargs)
        self.rng = np.random.default_rng(seed)
        self._sampler = SourceSampler(topology, self.rng)
        self.hosts: Dict[GUID, HostRecord] = {}
        self._names: Dict[str, GUID] = {}
        self.clock_ms = 0.0

    # ------------------------------------------------------------------
    # Host management
    # ------------------------------------------------------------------
    def random_asn(self) -> int:
        """A population-weighted random AS (where hosts actually are)."""
        return self._sampler.sample_one()

    def register_host(
        self,
        name_or_guid: Union[str, int, GUID],
        asn: Optional[int] = None,
    ) -> GUID:
        """Register a host and insert its GUID→NA mapping.

        ``asn`` defaults to a population-weighted random attachment AS.
        Returns the host's GUID.
        """
        guid = guid_like(name_or_guid)
        if guid in self.hosts:
            raise ConfigurationError(f"{name_or_guid!r} is already registered")
        asn = asn if asn is not None else self.random_asn()
        locator = self.table.representative_address(asn)
        self.resolver.insert(guid, [locator], asn, time=self.clock_ms)
        name = name_or_guid if isinstance(name_or_guid, str) else None
        self.hosts[guid] = HostRecord(guid, name, asn)
        if name is not None:
            self._names[name] = guid
        return guid

    def _record(self, name_or_guid: Union[str, int, GUID]) -> HostRecord:
        if isinstance(name_or_guid, str) and name_or_guid in self._names:
            return self.hosts[self._names[name_or_guid]]
        guid = guid_like(name_or_guid)
        try:
            return self.hosts[guid]
        except KeyError as exc:
            raise DMapError(f"{name_or_guid!r} is not a registered host") from exc

    def host_location(self, name_or_guid: Union[str, int, GUID]) -> int:
        """The AS a host is currently attached to."""
        return self._record(name_or_guid).current_asn

    def move_host(
        self,
        name_or_guid: Union[str, int, GUID],
        to_asn: Optional[int] = None,
    ) -> WriteResult:
        """Re-attach a host and update its binding (GUID Update, §III-A).

        Without ``to_asn`` the host moves to a random neighbour of its
        current AS (a vehicular-style handoff), drawn over the sorted
        neighbour list so the pick does not depend on neighbour order.
        """
        record = self._record(name_or_guid)
        if to_asn is None:
            neighbors = sorted(self.topology.neighbors(record.current_asn))
            to_asn = (
                int(neighbors[int(self.rng.integers(0, len(neighbors)))])
                if neighbors
                else self.random_asn()
            )
        locator = self.table.representative_address(to_asn)
        result = self.resolver.update(
            record.guid, [locator], to_asn, time=self.clock_ms
        )
        record.current_asn = to_asn
        record.moves += 1
        return result

    def deregister_host(self, name_or_guid: Union[str, int, GUID]) -> int:
        """Remove a host's mapping everywhere; returns copies deleted."""
        record = self._record(name_or_guid)
        removed = self.resolver.delete(record.guid)
        del self.hosts[record.guid]
        if record.name is not None:
            self._names.pop(record.name, None)
        return removed

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def lookup(
        self,
        name_or_guid: Union[str, int, GUID],
        from_asn: Optional[int] = None,
    ) -> LookupResult:
        """Resolve a host from ``from_asn`` (default: random population-
        weighted origin).  Names are accepted for registered hosts;
        unregistered names hash to their GUID first (§I: any entity can
        derive the hosting ASs locally)."""
        if isinstance(name_or_guid, str) and name_or_guid in self._names:
            guid = self._names[name_or_guid]
        else:
            guid = guid_like(name_or_guid)
        from_asn = from_asn if from_asn is not None else self.random_asn()
        return self.resolver.lookup(guid, from_asn)

    def advance_time(self, delta_ms: float) -> None:
        """Advance the deployment clock (stamps future writes)."""
        if delta_ms < 0:
            raise ConfigurationError("time cannot go backwards")
        self.clock_ms += delta_ms
