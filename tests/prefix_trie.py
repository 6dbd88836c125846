"""Binary trie over announced prefixes: longest-prefix match and
nearest-prefix search under the paper's XOR "IP distance" metric.

This is the tests' independent reference implementation.  The production
:class:`~repro.bgp.table.GlobalPrefixTable` answers from a sorted snapshot
and :mod:`repro.bgp.interval_index` instead; the tests check both
against this trie.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, Union

from repro.bgp.prefix import Announcement, Prefix
from repro.core.guid import ADDRESS_BITS, NetworkAddress
from repro.errors import AddressError, EmptyPrefixTableError


class _TrieNode:
    """One bit-level of the trie.  ``announcement`` is set when a prefix
    terminates exactly here."""

    __slots__ = ("children", "announcement")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode"]] = [None, None]
        self.announcement: Optional[Announcement] = None


class PrefixTrie:
    """Binary trie keyed by prefix bits (most-significant bit first).

    Supports insert, withdraw, longest-prefix match, exact match, iteration
    and nearest-announced-prefix search under the XOR metric (the deputy-AS
    fallback of Algorithm 1, line 10).
    """

    def __init__(self, bits: int = ADDRESS_BITS) -> None:
        self.bits = bits
        self._root = _TrieNode()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Announcement]:
        yield from self._iter_node(self._root)

    def _iter_node(self, node: _TrieNode) -> Iterator[Announcement]:
        if node.announcement is not None:
            yield node.announcement
        for child in node.children:
            if child is not None:
                yield from self._iter_node(child)

    def _check_prefix(self, prefix: Prefix) -> None:
        if prefix.bits != self.bits:
            raise AddressError(
                f"prefix width {prefix.bits} does not match trie width {self.bits}"
            )

    def _bit(self, value: int, depth: int) -> int:
        """Bit of ``value`` at trie depth ``depth`` (0 = most significant)."""
        return (value >> (self.bits - 1 - depth)) & 1

    def insert(self, announcement: Announcement) -> Optional[Announcement]:
        """Announce a prefix.  Returns the announcement it replaced, if any
        (the same prefix re-originated by another AS)."""
        prefix = announcement.prefix
        self._check_prefix(prefix)
        node = self._root
        for depth in range(prefix.length):
            bit = self._bit(prefix.base, depth)
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]
        previous = node.announcement
        node.announcement = announcement
        if previous is None:
            self._count += 1
        return previous

    def withdraw(self, prefix: Prefix) -> Optional[Announcement]:
        """Withdraw a prefix.  Returns the removed announcement, or ``None``
        if the prefix was not announced.  Empty branches are pruned."""
        self._check_prefix(prefix)
        path: List[Tuple[_TrieNode, int]] = []
        node = self._root
        for depth in range(prefix.length):
            bit = self._bit(prefix.base, depth)
            child = node.children[bit]
            if child is None:
                return None
            path.append((node, bit))
            node = child
        removed = node.announcement
        if removed is None:
            return None
        node.announcement = None
        self._count -= 1
        # Prune now-empty nodes bottom-up.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if (
                child is not None
                and child.announcement is None
                and child.children[0] is None
                and child.children[1] is None
            ):
                parent.children[bit] = None
            else:
                break
        return removed

    def exact_match(self, prefix: Prefix) -> Optional[Announcement]:
        """Return the announcement for exactly this prefix, if present."""
        self._check_prefix(prefix)
        node = self._root
        for depth in range(prefix.length):
            bit = self._bit(prefix.base, depth)
            node = node.children[bit]
            if node is None:
                return None
        return node.announcement

    def longest_prefix_match(
        self, address: Union[int, NetworkAddress]
    ) -> Optional[Announcement]:
        """Most-specific announcement covering ``address`` (or ``None``).

        This is the operation the border gateway runs on each hashed value
        (Algorithm 1, line 4).
        """
        value = int(address)
        if not 0 <= value < (1 << self.bits):
            raise AddressError(f"address {value:#x} out of range")
        node = self._root
        best = node.announcement
        for depth in range(self.bits):
            node = node.children[self._bit(value, depth)]
            if node is None:
                break
            if node.announcement is not None:
                best = node.announcement
        return best

    def nearest_prefix(
        self, address: Union[int, NetworkAddress]
    ) -> Tuple[Announcement, int]:
        """Announced prefix with minimum XOR distance to ``address``.

        Implements ``findNearestPrefix`` (Algorithm 1, line 10): after M
        failed rehashes the border gateway picks the deputy AS announcing
        the block closest to the hashed value under the IP-distance metric.

        Returns ``(announcement, distance)``; distance 0 means covered.
        Raises :class:`EmptyPrefixTableError` on an empty table.

        The search is a best-first trie descent: the branch matching the
        address bit costs 0, the other branch costs ``2**(bits-1-depth)``,
        and subtrees whose accumulated cost already exceeds the incumbent
        are pruned.  Expected cost is O(bits) on realistic tables.
        """
        value = int(address)
        if not 0 <= value < (1 << self.bits):
            raise AddressError(f"address {value:#x} out of range")
        if self._count == 0:
            raise EmptyPrefixTableError("nearest_prefix on an empty prefix table")

        best: Optional[Announcement] = None
        best_distance = 1 << (self.bits + 1)  # above any possible distance

        # Explicit stack of (node, depth, accumulated-distance); matching
        # branch pushed last so it is explored first.
        stack: List[Tuple[_TrieNode, int, int]] = [(self._root, 0, 0)]
        while stack:
            node, depth, acc = stack.pop()
            if acc >= best_distance:
                continue
            if node.announcement is not None and acc < best_distance:
                best = node.announcement
                best_distance = acc
                if best_distance == 0:
                    break
            if depth >= self.bits:
                continue
            bit = self._bit(value, depth)
            weight = 1 << (self.bits - 1 - depth)
            other = node.children[1 - bit]
            if other is not None and acc + weight < best_distance:
                stack.append((other, depth + 1, acc + weight))
            same = node.children[bit]
            if same is not None:
                stack.append((same, depth + 1, acc))

        assert best is not None  # count > 0 guarantees a hit
        return best, best_distance

    def announced_span(self) -> int:
        """Number of addresses covered by at least one announcement.

        Overlapping announcements (a /16 plus a more-specific /24 inside
        it) are counted once.  Used for announcement-ratio accounting
        (the paper's 55%/52% coverage figures, §III-B and §IV-B.1).
        """
        return self._span_under(self._root, self.bits)

    def _span_under(self, node: _TrieNode, remaining_bits: int) -> int:
        if node.announcement is not None:
            return 1 << remaining_bits
        total = 0
        for child in node.children:
            if child is not None:
                total += self._span_under(child, remaining_bits - 1)
        return total
