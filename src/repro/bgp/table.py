"""The global BGP prefix table.

Models the Internet default-free-zone routing table that every DMap border
gateway consults: which AS announces which prefix (§III-A).  The paper uses
the APNIC DIX-IE snapshot (~330,000 prefixes covering ~52% of the IPv4
space, §IV-B.1); :mod:`repro.bgp.allocation` synthesizes an equivalent
table offline.

The table supports dynamic announce/withdraw so BGP-churn experiments
(§III-D.1, Fig. 5) can mutate it mid-simulation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..core.guid import ADDRESS_BITS, NetworkAddress
from ..errors import PrefixTableError
from .interval_index import IntervalIndex
from .prefix import Announcement, Prefix
from .trie import PrefixTrie


class GlobalPrefixTable:
    """Set of BGP announcements with LPM and nearest-prefix queries.

    Internally a :class:`~repro.bgp.trie.PrefixTrie` plus per-AS indexes.
    A frozen :class:`~repro.bgp.interval_index.IntervalIndex` snapshot can
    be built for vectorized bulk experiments.

    ``generation`` counts the mutations (:meth:`announce` and
    :meth:`withdraw` are the only ones), so a caller holding something
    derived from the table can tell whether it is still current.
    """

    def __init__(
        self,
        announcements: Iterable[Announcement] = (),
        bits: int = ADDRESS_BITS,
    ) -> None:
        self.bits = bits
        self._trie = PrefixTrie(bits)
        self._by_asn: Dict[int, Set[Prefix]] = {}
        # Lowest prefix per AS, filled lazily by representative_address and
        # dropped whenever that AS gains or loses a prefix.
        self._lowest: Dict[int, Prefix] = {}
        self.generation = 0
        for ann in announcements:
            self.announce(ann)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def announce(self, announcement: Announcement) -> None:
        """Add an origination.  Re-announcing a prefix from a different AS
        moves it (the old origin loses it), mirroring BGP origin changes."""
        previous = self._trie.insert(announcement)
        if previous is not None:
            self._disown(previous)
        self._by_asn.setdefault(announcement.asn, set()).add(announcement.prefix)
        self._lowest.pop(announcement.asn, None)
        self.generation += 1

    def withdraw(self, prefix: Prefix) -> Announcement:
        """Remove an origination; raises if the prefix is not announced."""
        removed = self._trie.withdraw(prefix)
        if removed is None:
            raise PrefixTableError(f"prefix {prefix} is not announced")
        self._disown(removed)
        self.generation += 1
        return removed

    def _disown(self, announcement: Announcement) -> None:
        """Drop ``announcement`` from its origin's per-AS indexes."""
        owned = self._by_asn.get(announcement.asn)
        if owned is not None:
            owned.discard(announcement.prefix)
            if not owned:
                del self._by_asn[announcement.asn]
        self._lowest.pop(announcement.asn, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._trie)

    def __iter__(self) -> Iterator[Announcement]:
        return iter(self._trie)

    def __contains__(self, prefix: Prefix) -> bool:
        return self._trie.exact_match(prefix) is not None

    def resolve(
        self, address: Union[int, NetworkAddress]
    ) -> Optional[Announcement]:
        """Longest-prefix match; ``None`` when the address is an IP hole."""
        return self._trie.longest_prefix_match(address)

    def owner_asn(self, address: Union[int, NetworkAddress]) -> Optional[int]:
        """AS that would host a mapping hashed to ``address`` (or ``None``)."""
        ann = self.resolve(address)
        return None if ann is None else ann.asn

    def nearest(
        self, address: Union[int, NetworkAddress]
    ) -> Tuple[Announcement, int]:
        """Nearest announced prefix under the XOR IP-distance metric —
        the deputy-AS selection of Algorithm 1."""
        return self._trie.nearest_prefix(address)

    def prefixes_of(self, asn: int) -> List[Prefix]:
        """All prefixes currently originated by ``asn`` (sorted)."""
        return sorted(self._by_asn.get(asn, ()))

    def asns(self) -> List[int]:
        """All ASs currently announcing at least one prefix (sorted)."""
        return sorted(self._by_asn)

    def announced_span(self) -> int:
        """Addresses covered by at least one announcement (overlaps counted
        once)."""
        return self._trie.announced_span()

    def announcement_ratio(self) -> float:
        """Fraction of the address space that is announced.

        The paper reports 55% for the full IPv4 space (§III-B) and ~52%
        for the DIX-IE snapshot used in simulation (§IV-B.1).
        """
        return self.announced_span() / float(1 << self.bits)

    def representative_address(self, asn: int) -> NetworkAddress:
        """A canonical address inside ``asn``'s announced space — the base
        of its lowest prefix.  Used to mint locators for hosts attached to
        that AS in examples and simulations.

        Equal to ``prefixes_of(asn)[0].base``; the lowest prefix is cached
        per AS until that AS's prefix set changes, so minting a locator
        does not sort the AS's prefixes on every call.
        """
        lowest = self._lowest.get(asn)
        if lowest is None:
            owned = self._by_asn.get(asn)
            if not owned:
                raise PrefixTableError(f"AS {asn} announces no prefixes")
            lowest = self._lowest[asn] = min(owned)
        return NetworkAddress(lowest.base, self.bits)

    def build_interval_index(self) -> IntervalIndex:
        """Frozen vectorized snapshot for bulk LPM (Fig. 6 experiment).

        The snapshot does not track later announce/withdraw calls.
        """
        return IntervalIndex(list(self), bits=self.bits)

    def copy(self) -> "GlobalPrefixTable":
        """Independent copy (used to model inconsistent BGP views)."""
        return GlobalPrefixTable(list(self), bits=self.bits)
