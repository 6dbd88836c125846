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
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.guid import ADDRESS_BITS, NetworkAddress
from ..errors import AddressError, EmptyPrefixTableError, PrefixTableError
from .interval_index import HOLE, IntervalIndex, decompose, host_masks, owner_intervals
from .prefix import Announcement, Prefix


class _Snapshot:
    """What the queries of one table state read, derived from its sorted
    arrays.  Each part is built on its first use, so a query pays only
    for what it reads."""

    def __init__(
        self, bases: np.ndarray, lengths: np.ndarray, asns: np.ndarray, bits: int
    ) -> None:
        self.bases, self.lengths, self.asns, self.bits = bases, lengths, asns, bits
        # One Announcement per row, built when a query first returns it.
        self.anns: List[Optional[Announcement]] = [None] * len(bases)
        self.index: Optional[IntervalIndex] = None
        self.locators: Dict[int, NetworkAddress] = {}  # representative_address

    def announcement(self, row: int) -> Announcement:
        ann = self.anns[row]
        if ann is None:
            ann = self.anns[row] = Announcement(
                Prefix(self.bases.item(row), self.lengths.item(row), self.bits),
                self.asns.item(row),
            )
        return ann

    @cached_property
    def intervals(self) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`decompose`'s ``(starts, labels)``: a label is a row."""
        return decompose(self.bases, self.lengths, self.bits)

    @cached_property
    def lpm(self) -> Tuple[List[int], List[Optional[int]], List[int]]:
        """The scalar LPM's lists, built in one pass: the interval bounds,
        and per interval its owner AS (``None``) and row (``HOLE``)."""
        starts, labels = self.intervals
        rows = labels.tolist()
        owners = self.asns.tolist() + [None]  # a HOLE row reads the None
        return starts.tolist(), [owners[row] for row in rows], rows

    @cached_property
    def span(self) -> int:
        starts, labels = self.intervals
        widths = np.diff(np.append(starts, np.uint64(1 << self.bits)))
        return int(widths[labels != HOLE].sum())

    @cached_property
    def keys(self) -> List[int]:
        """``base << 8 | length`` per row (a length fits in 8 bits), for
        the nearest-prefix descent."""
        return [
            base << 8 | length
            for base, length in zip(self.bases.tolist(), self.lengths.tolist())
        ]

    @cached_property
    def lowest(self) -> Dict[int, int]:
        """Base of each AS's lowest prefix, by AS in ascending order: an
        AS's first row is its lowest prefix."""
        owners, first = np.unique(self.asns, return_index=True)
        return dict(zip(owners.tolist(), self.bases[first].tolist()))


class GlobalPrefixTable:
    """Set of BGP announcements with LPM and nearest-prefix queries.

    The table is three arrays, one row per announcement, sorted by
    ``(base, length)``: the prefix bases (``uint64``), lengths and origin
    ASs (``int64``).  Every query reads one snapshot derived from them
    (:class:`_Snapshot`): their decomposition into disjoint ownership
    intervals (:func:`~repro.bgp.interval_index.decompose`), which the
    scalar LPM bisects and :meth:`build_interval_index` wraps for
    vectorized bulk experiments, and the lowest prefix per AS.  An
    :class:`Announcement` is built only for a row a query returns.  A
    mutation replaces the arrays (the old ones stay valid for whoever
    holds them) and drops the snapshot, and the next query derives a new
    one, so a run of announcements costs one rebuild, not one per
    announcement.

    ``generation`` counts the mutations (:meth:`announce` and
    :meth:`withdraw` are the only ones), so a caller holding something
    derived from the table can tell whether it is still current.
    """

    def __init__(
        self,
        announcements: Iterable[Announcement] = (),
        bits: int = ADDRESS_BITS,
    ) -> None:
        if not 1 <= bits <= 64:
            raise AddressError(f"table width must lie in [1, 64], got {bits}")
        self.bits = bits
        # Announcing one by one: a later announcement of a prefix moves it.
        origins: Dict[Tuple[int, int], int] = {}
        count = 0
        for ann in announcements:
            self._check_width(ann.prefix)
            origins[ann.prefix.base, ann.prefix.length] = ann.asn
            count += 1
        n = len(origins)
        bases = np.fromiter((base for base, _ in origins), np.uint64, n)
        lengths = np.fromiter((length for _, length in origins), np.int64, n)
        asns = np.fromiter(origins.values(), np.int64, n)
        order = np.lexsort((lengths, bases))
        self._store(bases[order], lengths[order], asns[order])
        self.generation = count

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

        Equal to announcing them one by one (``generation`` included),
        with the checks :class:`Prefix` and :class:`Announcement` make
        (:class:`AddressError`), in a few array passes; the prefixes must
        be distinct (:class:`PrefixTableError`).  Rows out of
        ``(base, length)`` order are sorted.  Read-only arrays of the
        stored dtypes are kept, not copied.
        """
        table = cls(bits=bits)
        bases, lengths, asns = (np.asarray(a) for a in (bases, lengths, asns))
        n = len(bases)
        if any(a.ndim != 1 or len(a) != n for a in (bases, lengths, asns)):
            raise PrefixTableError("from_arrays needs three 1-D arrays of one length")
        if not n:
            return table
        if any(a.dtype.kind not in "iu" for a in (bases, lengths, asns)):
            raise TypeError("from_arrays needs integer arrays")
        if np.any((lengths < 0) | (lengths > bits)):
            raise AddressError(f"prefix length out of range for {bits}-bit space")
        if np.any(bases < 0) or (bits < 64 and np.any(bases >> bits)):
            raise AddressError(f"prefix base out of range for {bits}-bit space")
        # A read-only array is kept as it is (the substrate store's views
        # into its file); a writable one is the caller's, and is copied.
        bases = bases.astype(np.uint64, copy=bases.flags.writeable)
        lengths = lengths.astype(np.int64, copy=lengths.flags.writeable)
        if np.any(bases & host_masks(lengths, bits)):
            raise AddressError("prefix base has non-zero host bits")
        if np.any(asns < 0):
            raise AddressError("AS number must be non-negative")
        asns = asns.astype(np.int64, copy=asns.flags.writeable)
        if not _strictly_sorted(bases, lengths):
            order = np.lexsort((lengths, bases))
            bases, lengths, asns = bases[order], lengths[order], asns[order]
            if not _strictly_sorted(bases, lengths):
                raise PrefixTableError("from_arrays needs distinct prefixes")
        table._store(bases, lengths, asns)
        table.generation = n
        return table

    def _store(self, bases: np.ndarray, lengths: np.ndarray, asns: np.ndarray) -> None:
        """Make these sorted rows the table's state.  They are read-only,
        so a snapshot, a copy or a :meth:`prefix_arrays` caller may share
        them: a mutation builds new arrays instead of writing these."""
        for array in (bases, lengths, asns):
            array.flags.writeable = False
        self._bases, self._lengths, self._asns = bases, lengths, asns
        self._snap: Optional[_Snapshot] = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def announce(self, announcement: Announcement) -> None:
        """Add an origination.  Re-announcing a prefix from a different AS
        moves it (the old origin loses it), mirroring BGP origin changes."""
        prefix = announcement.prefix
        row, found = self._row(prefix)
        if found:
            asns = self._asns.copy()
            asns[row] = announcement.asn
            self._store(self._bases, self._lengths, asns)
        else:
            self._store(
                np.insert(self._bases, row, prefix.base),
                np.insert(self._lengths, row, prefix.length),
                np.insert(self._asns, row, announcement.asn),
            )
        self.generation += 1

    def withdraw(self, prefix: Prefix) -> Announcement:
        """Remove an origination; raises if the prefix is not announced."""
        row, found = self._row(prefix)
        if not found:
            raise PrefixTableError(f"prefix {prefix} is not announced")
        asn = int(self._asns[row])
        self._store(
            np.delete(self._bases, row),
            np.delete(self._lengths, row),
            np.delete(self._asns, row),
        )
        self.generation += 1
        return Announcement(prefix, asn)

    def _check_width(self, prefix: Prefix) -> None:
        if prefix.bits != self.bits:
            raise AddressError(
                f"prefix width {prefix.bits} does not match table width {self.bits}"
            )

    def _row(self, prefix: Prefix) -> Tuple[int, bool]:
        """The row ``prefix`` holds, or would be inserted at, and whether
        it is announced: a bisect on the bases, then on the lengths of
        that base's rows."""
        self._check_width(prefix)
        base = np.uint64(prefix.base)
        lo = int(np.searchsorted(self._bases, base, side="left"))
        hi = int(np.searchsorted(self._bases, base, side="right"))
        row = lo + int(np.searchsorted(self._lengths[lo:hi], prefix.length))
        return row, row < hi and int(self._lengths[row]) == prefix.length

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _snapshot(self) -> _Snapshot:
        snap = self._snap
        if snap is None:
            snap = self._snap = _Snapshot(
                self._bases, self._lengths, self._asns, self.bits
            )
        return snap

    def _address(self, address: Union[int, NetworkAddress]) -> int:
        value = int(address)
        if not 0 <= value < (1 << self.bits):
            raise AddressError(f"address {value:#x} out of range")
        return value

    def __len__(self) -> int:
        return len(self._bases)

    def __iter__(self) -> Iterator[Announcement]:
        """Announcements in ``(base, length)`` order: a covering block
        before its more-specifics."""
        return map(self._snapshot().announcement, range(len(self)))

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix.bits == self.bits and self._row(prefix)[1]

    def resolve(
        self, address: Union[int, NetworkAddress]
    ) -> Optional[Announcement]:
        """Longest-prefix match; ``None`` when the address is an IP hole."""
        value = self._address(address)
        snap = self._snap or self._snapshot()
        bounds, _owners, rows = snap.lpm
        row = rows[bisect_right(bounds, value) - 1]
        if row < 0:  # HOLE
            return None
        return snap.anns[row] or snap.announcement(row)

    def owner_asn(self, address: Union[int, NetworkAddress]) -> Optional[int]:
        """AS that would host a mapping hashed to ``address`` (or ``None``):
        the placement's LPM, one bisect into the snapshot's owner list."""
        bounds, owners = self.owner_list()
        return owners[bisect_right(bounds, self._address(address)) - 1]

    def owner_list(self) -> Tuple[List[int], List[Optional[int]]]:
        """``(bounds, owners)``: an address ``a`` in range is owned by
        ``owners[bisect_right(bounds, a) - 1]`` until the next mutation."""
        return (self._snap or self._snapshot()).lpm[:2]

    def nearest(
        self, address: Union[int, NetworkAddress]
    ) -> Tuple[Announcement, int]:
        """Nearest announced prefix under the XOR IP-distance metric —
        the deputy-AS selection of Algorithm 1 (``findNearestPrefix``,
        line 10).

        Returns ``(announcement, distance)``; distance 0 means covered.
        The distance to a block (§III-B: the minimum distance to any
        address it covers) is the XOR of its network bits with the
        address's, the host bits matching exactly.  Two blocks
        at one distance are nested, and the shorter one wins, so a
        covered address gets its shortest covering prefix.  Raises
        :class:`EmptyPrefixTableError` on an empty table.
        """
        value = self._address(address)
        if not len(self):
            raise EmptyPrefixTableError("nearest prefix in an empty prefix table")
        snap = self._snapshot()
        keys = snap.keys
        # The trie's best-first descent, over the sorted rows: the block
        # ``node/depth`` holds rows ``lo:hi``.  A mismatched bit costs
        # more than all later bits together, so the branch matching the
        # address wins whenever it holds any announcement, and the first
        # announced block on the way down is the nearest (deeper ones are
        # no closer; at a tie the shorter wins).
        bits = self.bits
        lo, hi, node, distance = 0, len(keys), 0, 0
        for depth in range(bits + 1):
            key = keys[lo]
            if hi - lo == 1:  # one candidate left: its distance directly
                host = bits - (key & 0xFF)
                return snap.announcement(lo), ((key >> 8 ^ value) >> host) << host
            if key == node << 8 | depth:
                return snap.announcement(lo), distance
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
        rows = np.flatnonzero(self._asns == asn)
        return [
            Prefix(base, length, self.bits)
            for base, length in zip(
                self._bases[rows].tolist(), self._lengths[rows].tolist()
            )
        ]

    def asns(self) -> List[int]:
        """All ASs currently announcing at least one prefix (sorted)."""
        return list(self._snapshot().lowest)

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

        Equal to ``prefixes_of(asn)[0].base``, read from the snapshot's
        per-AS first row; between two mutations every call for one AS
        returns the same (immutable) :class:`NetworkAddress`.
        """
        snap = self._snap or self._snapshot()
        if asn not in snap.locators:
            if asn not in snap.lowest:
                raise PrefixTableError(f"AS {asn} announces no prefixes")
            snap.locators[asn] = NetworkAddress(snap.lowest[asn], self.bits)
        return snap.locators[asn]

    def prefix_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(bases, lengths, asns)`` of the announcements, in iteration
        order (read-only ``uint64``/``int64``/``int64`` arrays)."""
        return self._bases, self._lengths, self._asns

    def build_interval_index(self) -> IntervalIndex:
        """Frozen vectorized snapshot for bulk LPM (Fig. 6 experiment).

        The index does not track later announce/withdraw calls.  It is
        built once per table state: calls between two mutations return
        the same (read-only) index.
        """
        snap = self._snapshot()
        if snap.index is None:
            if not len(self):
                raise EmptyPrefixTableError(
                    "cannot build an interval index from no announcements"
                )
            starts, owners = owner_intervals(*snap.intervals, snap.asns)
            snap.index = IntervalIndex(starts, owners, self.bits)
        return snap.index

    def copy(self) -> "GlobalPrefixTable":
        """Independent copy (used to model inconsistent BGP views).

        It shares the read-only arrays and their snapshot until either
        table mutates; its ``generation`` is its length, as if its
        announcements had been announced one by one.
        """
        clone = GlobalPrefixTable(bits=self.bits)
        clone._store(self._bases, self._lengths, self._asns)
        clone._snap = self._snap
        clone.generation = len(self)
        return clone


def _strictly_sorted(bases: np.ndarray, lengths: np.ndarray) -> bool:
    """Whether the rows are in strictly increasing ``(base, length)``
    order: sorted, and no prefix twice."""
    same = bases[1:] == bases[:-1]
    return bool(np.all((bases[1:] > bases[:-1]) | (same & (lengths[1:] > lengths[:-1]))))
