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

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from ..core.guid import ADDRESS_BITS, NetworkAddress
from ..errors import AddressError, EmptyPrefixTableError, PrefixTableError
from .interval_index import (
    HOLE,
    IntervalIndex,
    decompose,
    owner_intervals,
    sort_announcements,
)
from .prefix import Announcement, Prefix


class _Snapshot:
    """The announcements sorted by ``(base, length)`` and their interval
    decomposition: what every query of one table state reads."""

    __slots__ = ("anns", "bases", "lengths", "asns", "starts", "labels",
                 "bounds", "owners", "span", "index", "keys")

    def __init__(self, anns: List[Announcement], bits: int) -> None:
        self.anns, self.bases, self.lengths, self.asns = sort_announcements(anns)
        for array in (self.bases, self.lengths, self.asns):
            array.flags.writeable = False
        self.starts, self.labels = decompose(self.bases, self.lengths, bits)
        # Python lists: the scalar LPM bisects them once per call.
        self.bounds = self.starts.tolist()
        self.owners: List[Optional[Announcement]] = [
            None if label == HOLE else self.anns[label]
            for label in self.labels.tolist()
        ]
        widths = np.diff(np.append(self.starts, np.uint64(1 << bits)))
        self.span = int(widths[self.labels != HOLE].sum())
        self.index: Optional[IntervalIndex] = None
        # ``base << 8 | length`` per announcement (in order; a length
        # fits in 8 bits), for the nearest-prefix descent; built on its
        # first call.
        self.keys: Optional[List[int]] = None


class GlobalPrefixTable:
    """Set of BGP announcements with LPM and nearest-prefix queries.

    The announcements live in a dict keyed by prefix, plus per-AS
    indexes.  Every query reads one snapshot of them, sorted by
    ``(base, length)`` and decomposed into disjoint ownership intervals
    (:func:`~repro.bgp.interval_index.decompose`): the scalar LPM bisects
    it, :meth:`build_interval_index` wraps it for vectorized bulk
    experiments.  A mutation drops the snapshot and the next query
    rebuilds it, so a run of announcements costs one rebuild, not one
    per announcement.

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
        self._anns: Dict[Prefix, Announcement] = {}
        self._by_asn: Dict[int, Set[Prefix]] = {}
        # Lowest prefix per AS, filled lazily by representative_address and
        # dropped whenever that AS gains or loses a prefix.
        self._lowest: Dict[int, Prefix] = {}
        self._snap: Optional[_Snapshot] = None
        self.generation = 0
        for ann in announcements:
            self.announce(ann)

    @classmethod
    def from_arrays(
        cls,
        bases: np.ndarray,
        lengths: np.ndarray,
        asns: np.ndarray,
        bits: int = ADDRESS_BITS,
    ) -> "GlobalPrefixTable":
        """The table announcing ``bases[i]/lengths[i]`` from ``asns[i]`` —
        the inverse of :meth:`prefix_arrays`.

        Equal to announcing them one by one (``generation`` included), in
        one pass; the prefixes must be distinct.
        """
        table = cls(bits=bits)
        anns = [
            Announcement(Prefix(base, length, bits), asn)
            for base, length, asn in zip(bases.tolist(), lengths.tolist(), asns.tolist())
        ]
        table._anns = {ann.prefix: ann for ann in anns}
        if len(table._anns) != len(anns):
            raise PrefixTableError("from_arrays needs distinct prefixes")
        for ann in anns:
            table._by_asn.setdefault(ann.asn, set()).add(ann.prefix)
        table.generation = len(anns)
        return table

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def announce(self, announcement: Announcement) -> None:
        """Add an origination.  Re-announcing a prefix from a different AS
        moves it (the old origin loses it), mirroring BGP origin changes."""
        prefix = announcement.prefix
        self._check_width(prefix)
        previous = self._anns.get(prefix)
        if previous is not None:
            self._disown(previous)
        self._anns[prefix] = announcement
        self._by_asn.setdefault(announcement.asn, set()).add(prefix)
        self._lowest.pop(announcement.asn, None)
        self._snap = None
        self.generation += 1

    def withdraw(self, prefix: Prefix) -> Announcement:
        """Remove an origination; raises if the prefix is not announced."""
        self._check_width(prefix)
        removed = self._anns.pop(prefix, None)
        if removed is None:
            raise PrefixTableError(f"prefix {prefix} is not announced")
        self._disown(removed)
        self._snap = None
        self.generation += 1
        return removed

    def _check_width(self, prefix: Prefix) -> None:
        if prefix.bits != self.bits:
            raise AddressError(
                f"prefix width {prefix.bits} does not match table width {self.bits}"
            )

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
    def _snapshot(self) -> _Snapshot:
        snap = self._snap
        if snap is None:
            snap = self._snap = _Snapshot(list(self._anns.values()), self.bits)
        return snap

    def _address(self, address: Union[int, NetworkAddress]) -> int:
        value = int(address)
        if not 0 <= value < (1 << self.bits):
            raise AddressError(f"address {value:#x} out of range")
        return value

    def __len__(self) -> int:
        return len(self._anns)

    def __iter__(self) -> Iterator[Announcement]:
        """Announcements in ``(base, length)`` order: a covering block
        before its more-specifics."""
        return iter(self._snapshot().anns)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._anns

    def resolve(
        self, address: Union[int, NetworkAddress]
    ) -> Optional[Announcement]:
        """Longest-prefix match; ``None`` when the address is an IP hole."""
        value = self._address(address)
        snap = self._snapshot()
        return snap.owners[bisect_right(snap.bounds, value) - 1]

    def owner_asn(self, address: Union[int, NetworkAddress]) -> Optional[int]:
        """AS that would host a mapping hashed to ``address`` (or ``None``)."""
        ann = self.resolve(address)
        return None if ann is None else ann.asn

    def nearest(
        self, address: Union[int, NetworkAddress]
    ) -> Tuple[Announcement, int]:
        """Nearest announced prefix under the XOR IP-distance metric —
        the deputy-AS selection of Algorithm 1 (``findNearestPrefix``,
        line 10).

        Returns ``(announcement, distance)``; distance 0 means covered.
        The distance to a block is the XOR of its network bits with the
        address's (§III-B, :meth:`Prefix.xor_distance_to`).  Two blocks
        at one distance are nested, and the shorter one wins, so a
        covered address gets its shortest covering prefix.  Raises
        :class:`EmptyPrefixTableError` on an empty table.
        """
        value = self._address(address)
        snap = self._snapshot()
        if not snap.anns:
            raise EmptyPrefixTableError("nearest prefix in an empty prefix table")
        keys = snap.keys
        if keys is None:
            keys = snap.keys = [
                base << 8 | length
                for base, length in zip(snap.bases.tolist(), snap.lengths.tolist())
            ]
        # The trie's best-first descent, over the sorted snapshot: the
        # block ``node/depth`` holds announcements ``lo:hi``.  A mismatched
        # bit costs more than all later bits together, so the branch
        # matching the address wins whenever it holds any announcement,
        # and the first announced block on the way down is the nearest
        # (deeper ones are no closer; at a tie the shorter wins).
        bits = self.bits
        lo, hi, node, distance = 0, len(keys), 0, 0
        for depth in range(bits + 1):
            key = keys[lo]
            if hi - lo == 1:  # one candidate left: its distance directly
                host = bits - (key & 0xFF)
                return snap.anns[lo], ((key >> 8 ^ value) >> host) << host
            if key == node << 8 | depth:
                return snap.anns[lo], distance
            half = 1 << (bits - 1 - depth)
            mid = bisect_left(keys, (node + half) << 8, lo, hi)
            if value & half:
                if mid < hi:
                    lo, node = mid, node + half
                else:
                    hi, distance = mid, distance + half
            elif lo < mid:
                hi = mid
            else:
                lo, node, distance = mid, node + half, distance + half
        raise AssertionError("a non-empty block holds an announcement")

    def prefixes_of(self, asn: int) -> List[Prefix]:
        """All prefixes currently originated by ``asn`` (sorted)."""
        return sorted(self._by_asn.get(asn, ()))

    def asns(self) -> List[int]:
        """All ASs currently announcing at least one prefix (sorted)."""
        return sorted(self._by_asn)

    def announced_span(self) -> int:
        """Addresses covered by at least one announcement (overlaps counted
        once)."""
        return self._snapshot().span

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

    def prefix_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(bases, lengths, asns)`` of the announcements, in iteration
        order (read-only ``uint64``/``int64``/``int64`` arrays)."""
        snap = self._snapshot()
        return snap.bases, snap.lengths, snap.asns

    def build_interval_index(self) -> IntervalIndex:
        """Frozen vectorized snapshot for bulk LPM (Fig. 6 experiment).

        The index does not track later announce/withdraw calls.  It is
        built once per table state: calls between two mutations return
        the same (read-only) index.
        """
        snap = self._snapshot()
        if snap.index is None:
            if not snap.anns:
                raise EmptyPrefixTableError(
                    "cannot build an interval index from no announcements"
                )
            starts, owners = owner_intervals(snap.starts, snap.labels, snap.asns)
            snap.index = IntervalIndex.from_intervals(starts, owners, self.bits)
        return snap.index

    def copy(self) -> "GlobalPrefixTable":
        """Independent copy (used to model inconsistent BGP views)."""
        return GlobalPrefixTable(list(self), bits=self.bits)
