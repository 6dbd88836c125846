"""Common interface for the baseline mapping schemes (§II-B, §VI).

The paper positions DMap against MobileIP, DNS and DHT-based mapping
systems.  Each baseline here implements the same minimal resolver surface
so the ``baselines`` experiment can drive them interchangeably with DMap:

* :meth:`insert` — create/refresh a GUID→NA binding; returns the time (ms)
  until the binding is globally consistent;
* :meth:`lookup` — resolve a GUID from a querying AS; returns the
  locators and the round-trip response time (ms).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..core.guid import GUID, NetworkAddress


@dataclass(frozen=True)
class BaselineLookup:
    """Outcome of a baseline lookup."""

    locators: Tuple[NetworkAddress, ...]
    rtt_ms: float
    overlay_hops: int


class BaselineResolver(ABC):
    """A name-resolution scheme comparable to DMap."""

    #: Human-readable scheme name for comparison tables.
    name: str = "baseline"

    @abstractmethod
    def insert(
        self, guid: GUID, locators: Sequence[NetworkAddress], source_asn: int
    ) -> float:
        """Bind ``guid``; returns the update latency in ms."""

    @abstractmethod
    def lookup(self, guid: GUID, source_asn: int) -> BaselineLookup:
        """Resolve ``guid`` from ``source_asn``."""

    def maintenance_overhead_bps(self) -> float:
        """Steady-state per-node control traffic (bits/s) the scheme needs
        beyond insert/lookup — DHT stabilization, membership gossip, etc.
        DMap's headline advantage is that this is zero (§III-A)."""
        return 0.0
