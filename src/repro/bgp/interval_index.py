"""Vectorized longest-prefix matching over a frozen prefix table.

The storage-load experiment (Fig. 6) inserts up to 10^7 GUIDs × K replicas,
i.e. tens of millions of LPM operations.  A per-address trie walk in Python
is far too slow, so this module flattens the announced prefixes into a
sorted array of *disjoint ownership intervals* — each interval labelled
with the AS whose announcement is most specific there — and answers batch
lookups with one :func:`numpy.searchsorted` call.

The decomposition (:func:`decompose`) is exact under arbitrary prefix
overlap (a covering /16 with more-specific /24s inside it).  It is shared
with :class:`repro.bgp.table.GlobalPrefixTable`, so both are
property-tested against the tests' independent reference trie
(``tests/prefix_trie.py``).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..core.guid import ADDRESS_BITS

#: Owner label for address ranges covered by no announcement (IP holes).
HOLE = -1


class IntervalIndex:
    """Immutable, vectorized LPM index over a prefix table's snapshot
    (built by :meth:`GlobalPrefixTable.build_interval_index
    <repro.bgp.table.GlobalPrefixTable.build_interval_index>`).

    Attributes
    ----------
    starts:
        ``uint64`` array of interval start addresses; ``starts[0] == 0`` and
        intervals partition the whole space.
    owners:
        ``int64`` array, same length: AS number owning each interval, or
        :data:`HOLE` (see :func:`owner_intervals`).
    bits:
        Address-family width.
    """

    def __init__(
        self, starts: np.ndarray, owners: np.ndarray, bits: int = ADDRESS_BITS
    ) -> None:
        self.bits = bits
        self.starts = starts
        self.owners = owners
        # Frozen: one index may be shared by every caller of a table
        # snapshot.
        self.starts.flags.writeable = False
        self.owners.flags.writeable = False

    def __len__(self) -> int:
        return len(self.starts)

    def lookup_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Owner ASN for each address (``HOLE`` where unannounced).

        ``addresses`` may be any unsigned/signed integer array within the
        address space; the result is an ``int64`` array of the same shape.
        """
        addrs = np.asarray(addresses, dtype=np.uint64)
        idx = np.searchsorted(self.starts, addrs, side="right") - 1
        return self.owners[idx]

    def lookup_one(self, address: int) -> int:
        """Scalar convenience wrapper around :meth:`lookup_batch`."""
        return int(self.lookup_batch(np.array([address], dtype=np.uint64))[0])

    def is_announced_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Boolean array: does any announcement cover each address?"""
        return self.lookup_batch(addresses) != HOLE

    def announced_span(self) -> int:
        """Total number of announced addresses (holes excluded)."""
        ends = np.append(self.starts[1:], np.uint64(1) << np.uint64(self.bits))
        widths = (ends - self.starts).astype(np.float64)
        return int(widths[self.owners != HOLE].sum())

    def announced_fraction(self) -> float:
        """Announced share of the whole address space (paper: ~52-55%)."""
        return self.announced_span() / float(1 << self.bits)

    def effective_span_by_asn(self) -> Dict[int, int]:
        """Addresses *effectively owned* by each AS under LPM precedence.

        This is the denominator of the Normalized Load Ratio (Fig. 6): the
        share of address space for which a hashed value is stored at that
        AS.  Where prefixes overlap, only the most-specific announcement's
        AS owns the range, matching what LPM-based insertion actually does.
        """
        ends = np.append(self.starts[1:], np.uint64(1) << np.uint64(self.bits))
        widths = ends - self.starts
        spans: Dict[int, int] = {}
        for owner, width in zip(self.owners.tolist(), widths.tolist()):
            if owner == HOLE:
                continue
            spans[owner] = spans.get(owner, 0) + int(width)
        return spans


def decompose(
    bases: np.ndarray, lengths: np.ndarray, bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Disjoint LPM intervals of distinct prefixes sorted by ``(base, length)``.

    Returns ``(starts, labels)``: ``labels[i]`` is the position, in the
    input, of the most specific prefix covering
    ``[starts[i], starts[i + 1])``, or :data:`HOLE`.  ``starts[0] == 0``,
    no interval is empty, and no two neighbours share a label.

    CIDR blocks are laminar (nested or disjoint), so the input is a
    pre-order walk of the nesting forest.  A block opens at its base and
    closes after its last address, unless that ends the space.  One stable
    sort of the events (closes first at a position, deeper ones first) and
    a running count give each block's depth, its parent is the last block
    before it one level up, and a position's last event sets its label.
    """
    lasts = bases | host_masks(lengths, bits)
    closing = np.flatnonzero(lasts < np.uint64((1 << bits) - 1))
    closing = closing[np.lexsort((-lengths[closing], lasts[closing]))]
    n, m = len(bases), len(closing)
    # The hole from 0 (a -1 step, so the count at an open is the block's
    # depth), then the closes, then the opens.
    positions = np.concatenate(
        (np.zeros(1, np.uint64), lasts[closing] + np.uint64(1), bases)
    )
    order = np.argsort(positions, kind="stable")
    opens = order > m
    depth = np.empty(n, dtype=np.int32)
    depth[order[opens] - (m + 1)] = np.cumsum(np.where(opens, 1, -1))[opens]
    parents = np.full(n, HOLE, dtype=np.int64)
    above = np.flatnonzero(depth == 0)
    for level in range(1, int(depth.max(initial=0)) + 1):
        rows = np.flatnonzero(depth == level)
        parents[rows] = above[np.searchsorted(above, rows) - 1]
        above = rows
    labels = np.concatenate(([HOLE], parents[closing], np.arange(n)))[order]
    positions = positions[order]
    last = np.append(positions[1:] != positions[:-1], True)
    return _merge_runs(positions[last], labels[last])


#: ``_HOST_MASKS[h]`` is the mask of ``h`` host bits, ``2**h - 1``.
_HOST_MASKS = np.array([(1 << h) - 1 for h in range(65)], dtype=np.uint64)


def host_masks(lengths: np.ndarray, bits: int) -> np.ndarray:
    """The host-bit mask (``span - 1``) of each prefix length, for
    lengths in ``[0, bits]`` and ``bits <= 64``."""
    return _HOST_MASKS[bits - lengths]


def owner_intervals(
    starts: np.ndarray, labels: np.ndarray, asns: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`decompose`'s intervals relabelled with the owning AS
    (``asns[label]``, or :data:`HOLE`), neighbours of one AS merged."""
    owners = np.where(labels == HOLE, HOLE, asns[np.maximum(labels, 0)])
    return _merge_runs(starts, owners)


def _merge_runs(starts: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    first = np.ones(len(labels), dtype=bool)
    first[1:] = labels[1:] != labels[:-1]
    return starts[first], labels[first]
