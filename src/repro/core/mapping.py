"""GUID→NA mapping entries and the per-AS mapping store.

A mapping entry binds one GUID to up to :data:`~repro.core.guid.MAX_LOCATORS`
network addresses plus metadata (§IV-A budgets 352 bits per entry:
160-bit GUID + 5×32-bit NAs + 32 bits of meta).  Each AS participating in
DMap runs a :class:`MappingStore` on its gateway-router compute layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import ConfigurationError, MappingNotFoundError
from .guid import GUID, MAX_LOCATORS, NetworkAddress

#: Bits of per-entry metadata assumed by the paper's storage model (§IV-A):
#: "type of service, priority and other meta information".
METADATA_BITS = 32


class _EntryFields(NamedTuple):
    guid: GUID
    locators: Tuple[NetworkAddress, ...]
    version: int = 0
    timestamp: float = 0.0


class MappingEntry(_EntryFields):
    """An immutable GUID→NA binding with a version stamp.

    A named tuple that checks its fields when built (every write builds
    one).

    Parameters
    ----------
    guid:
        The identifier being bound.
    locators:
        One or more network addresses, ordered by preference.
    version:
        Monotonically increasing update counter; lets replicas and caches
        reject stale writes (§III-D.2).
    timestamp:
        Simulation time (seconds) the binding was produced.
    """

    __slots__ = ()

    def __new__(cls, guid: GUID, locators: Tuple[NetworkAddress, ...],
                version: int = 0, timestamp: float = 0.0) -> "MappingEntry":
        if not locators:
            raise ConfigurationError("a mapping entry needs at least one locator")
        if len(locators) > MAX_LOCATORS:
            raise ConfigurationError(
                f"at most {MAX_LOCATORS} locators per entry, got {len(locators)}"
            )
        if version < 0:
            raise ConfigurationError("version must be non-negative")
        return _EntryFields.__new__(cls, guid, locators, version, timestamp)

    @property
    def primary_locator(self) -> NetworkAddress:
        """The preferred (first) locator."""
        return self.locators[0]

    def with_locators(
        self, locators: Iterable[NetworkAddress], timestamp: float
    ) -> "MappingEntry":
        """Produce the successor entry after a move/update (version + 1)."""
        return type(self)(self.guid, tuple(locators), self.version + 1, timestamp)

    def size_bits(self) -> int:
        """Storage footprint following the paper's §IV-A accounting.

        The paper reserves space for the *maximum* number of locators per
        entry (5 × 32 bits) regardless of how many are in use, plus 32 bits
        of metadata: 160 + 160 + 32 = 352 bits.
        """
        return self.guid.bits + MAX_LOCATORS * self.locators[0].bits + METADATA_BITS


@dataclass
class StoreStats:
    """Operation counters for one :class:`MappingStore`."""

    inserts: int = 0
    updates: int = 0
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    deletes: int = 0
    rejected_stale: int = 0


class MappingStore:
    """The GUID→NA table hosted by a single AS.

    The store is deliberately simple — a dict keyed by GUID — because DMap's
    contribution is *where* entries live, not the local data structure.  It
    enforces version monotonicity so replica updates arriving out of order
    (parallel update fan-out, §III-A) cannot roll a binding back.
    """

    def __init__(self, owner_asn: Optional[int] = None) -> None:
        self.owner_asn = owner_asn
        self._entries: Dict[GUID, MappingEntry] = {}
        self.stats = StoreStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, guid: GUID) -> bool:
        return guid in self._entries

    def __iter__(self) -> Iterator[MappingEntry]:
        return iter(self._entries.values())

    def insert(self, entry: MappingEntry) -> bool:
        """Store ``entry``; returns ``False`` if a newer version was present.

        Both GUID Insert and GUID Update requests land here — the paper
        processes them identically (§III-A).
        """
        current = self._entries.get(entry.guid)
        if current is not None and current.version > entry.version:
            self.stats.rejected_stale += 1
            return False
        if current is None:
            self.stats.inserts += 1
        else:
            self.stats.updates += 1
        self._entries[entry.guid] = entry
        return True

    def lookup(self, guid: GUID) -> MappingEntry:
        """Return the stored entry or raise :class:`MappingNotFoundError`.

        A miss models the "GUID missing" reply an AS sends when a query
        reaches it but the mapping is absent (BGP churn, §IV-B.2b).
        """
        self.stats.lookups += 1
        entry = self._entries.get(guid)
        if entry is None:
            self.stats.misses += 1
            raise MappingNotFoundError(guid, self.owner_asn)
        self.stats.hits += 1
        return entry

    def get(self, guid: GUID) -> Optional[MappingEntry]:
        """Non-raising variant of :meth:`lookup` (does not touch stats)."""
        return self._entries.get(guid)

    def delete(self, guid: GUID) -> bool:
        """Remove a mapping; returns whether it was present."""
        if guid in self._entries:
            del self._entries[guid]
            self.stats.deletes += 1
            return True
        return False

    def pop_all(self) -> List[MappingEntry]:
        """Remove and return every entry (used for prefix-withdrawal
        migration to a deputy AS, §III-D.1)."""
        entries = list(self._entries.values())
        self._entries.clear()
        return entries

    def entries_for_guids(self, guids: Iterable[GUID]) -> List[MappingEntry]:
        """Return stored entries for the given GUIDs, skipping absentees."""
        return [self._entries[g] for g in guids if g in self._entries]

    def storage_bits(self) -> int:
        """Total storage footprint of this store per the §IV-A model."""
        return sum(entry.size_bits() for entry in self._entries.values())
