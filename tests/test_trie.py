"""Unit and property tests for the prefix trie (LPM + nearest prefix), and
for the production :class:`GlobalPrefixTable` against it."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.allocation import AllocationConfig, generate_global_prefix_table
from repro.bgp.prefix import Announcement, Prefix
from repro.bgp.table import GlobalPrefixTable
from repro.errors import AddressError, EmptyPrefixTableError, PrefixTableError

from .addressing import from_cidr, xor_distance_to
from .prefix_trie import PrefixTrie


def ann(cidr: str, asn: int) -> Announcement:
    return Announcement(from_cidr(cidr), asn)


def small_ann(base: int, length: int, asn: int, bits: int = 8) -> Announcement:
    span = 1 << (bits - length)
    return Announcement(Prefix(base & ~(span - 1) & ((1 << bits) - 1), length, bits), asn)


@st.composite
def announcement_sets(draw, bits=8, max_count=12):
    """Random sets of (possibly overlapping) announcements in an 8-bit space,
    at most one announcement per distinct prefix."""
    count = draw(st.integers(min_value=1, max_value=max_count))
    seen = {}
    for i in range(count):
        length = draw(st.integers(min_value=0, max_value=bits))
        base = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
        a = small_ann(base, length, asn=i + 1, bits=bits)
        seen[a.prefix] = a
    return list(seen.values())


def naive_lpm(announcements, address):
    best = None
    for a in announcements:
        if a.prefix.contains(address):
            if best is None or a.prefix.length > best.prefix.length:
                best = a
    return best


class TestInsertWithdraw:
    def test_insert_and_exact_match(self):
        trie = PrefixTrie()
        a = ann("10.0.0.0/8", 1)
        assert trie.insert(a) is None
        assert trie.exact_match(a.prefix) == a
        assert len(trie) == 1

    def test_reinsert_replaces_and_reports(self):
        trie = PrefixTrie()
        trie.insert(ann("10.0.0.0/8", 1))
        replaced = trie.insert(ann("10.0.0.0/8", 2))
        assert replaced.asn == 1
        assert len(trie) == 1
        assert trie.exact_match(from_cidr("10.0.0.0/8")).asn == 2

    def test_withdraw(self):
        trie = PrefixTrie()
        trie.insert(ann("10.0.0.0/8", 1))
        removed = trie.withdraw(from_cidr("10.0.0.0/8"))
        assert removed.asn == 1
        assert len(trie) == 0
        assert trie.withdraw(from_cidr("10.0.0.0/8")) is None

    def test_withdraw_keeps_more_specifics(self):
        trie = PrefixTrie()
        trie.insert(ann("10.0.0.0/8", 1))
        trie.insert(ann("10.5.0.0/16", 2))
        trie.withdraw(from_cidr("10.0.0.0/8"))
        addr = from_cidr("10.5.1.0/24").base
        assert trie.longest_prefix_match(addr).asn == 2

    def test_width_mismatch_rejected(self):
        trie = PrefixTrie(bits=8)
        with pytest.raises(AddressError):
            trie.insert(ann("10.0.0.0/8", 1))

    def test_iteration_yields_all(self):
        trie = PrefixTrie()
        for cidr, asn in [("10.0.0.0/8", 1), ("10.5.0.0/16", 2), ("11.0.0.0/8", 3)]:
            trie.insert(ann(cidr, asn))
        assert {a.asn for a in trie} == {1, 2, 3}


class TestLongestPrefixMatch:
    def test_most_specific_wins(self):
        trie = PrefixTrie()
        trie.insert(ann("10.0.0.0/8", 1))
        trie.insert(ann("10.5.0.0/16", 2))
        assert trie.longest_prefix_match(from_cidr("10.5.7.0/24").base).asn == 2
        assert trie.longest_prefix_match(from_cidr("10.6.0.0/16").base).asn == 1

    def test_hole_returns_none(self):
        trie = PrefixTrie()
        trie.insert(ann("10.0.0.0/8", 1))
        assert trie.longest_prefix_match(0) is None

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(Announcement(Prefix(0, 0), 99))
        assert trie.longest_prefix_match(12345).asn == 99

    def test_out_of_range_address(self):
        with pytest.raises(AddressError):
            PrefixTrie(bits=8).longest_prefix_match(256)

    @given(announcement_sets(), st.integers(min_value=0, max_value=255))
    def test_agrees_with_naive(self, announcements, address):
        trie = PrefixTrie(bits=8)
        for a in announcements:
            trie.insert(a)
        expected = naive_lpm(announcements, address)
        got = trie.longest_prefix_match(address)
        if expected is None:
            assert got is None
        else:
            assert got.prefix == expected.prefix


class TestNearestPrefix:
    def test_empty_raises(self):
        with pytest.raises(EmptyPrefixTableError):
            PrefixTrie().nearest_prefix(0)

    def test_covered_address_distance_zero(self):
        trie = PrefixTrie()
        trie.insert(ann("10.0.0.0/8", 1))
        found, dist = trie.nearest_prefix(from_cidr("10.1.0.0/16").base)
        assert found.asn == 1 and dist == 0

    @given(announcement_sets(), st.integers(min_value=0, max_value=255))
    @settings(max_examples=200)
    def test_agrees_with_brute_force(self, announcements, address):
        trie = PrefixTrie(bits=8)
        for a in announcements:
            trie.insert(a)
        _found, dist = trie.nearest_prefix(address)
        brute = min(xor_distance_to(a.prefix, address) for a in announcements)
        assert dist == brute


class TestAnnouncedSpan:
    def test_disjoint(self):
        trie = PrefixTrie(bits=8)
        trie.insert(small_ann(0, 2, 1))  # 64 addresses
        trie.insert(small_ann(128, 2, 2))  # 64 addresses
        assert trie.announced_span() == 128

    def test_overlap_counted_once(self):
        trie = PrefixTrie(bits=8)
        trie.insert(small_ann(0, 2, 1))  # covers 0-63
        trie.insert(small_ann(0, 4, 2))  # covers 0-15 inside it
        assert trie.announced_span() == 64

    @given(announcement_sets())
    def test_matches_brute_force(self, announcements):
        trie = PrefixTrie(bits=8)
        for a in announcements:
            trie.insert(a)
        brute = sum(
            1
            for addr in range(256)
            if any(a.prefix.contains(addr) for a in announcements)
        )
        assert trie.announced_span() == brute


@st.composite
def churn_traces(draw, bits=8, max_ops=16):
    """Announce/withdraw sequences over overlapping prefixes.  A few
    origin ASs over short prefixes make re-announcements of an announced
    prefix (origin moves) and withdrawals of announced ones common."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        length = draw(st.integers(min_value=0, max_value=bits))
        base = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
        asn = draw(st.integers(min_value=1, max_value=4))
        withdraw = draw(st.booleans())
        ops.append((withdraw, small_ann(base, length, asn, bits=bits)))
    return ops


def replay(ops, bits=8):
    """The same trace applied to a production table and a reference trie."""
    table = GlobalPrefixTable(bits=bits)
    trie = PrefixTrie(bits=bits)
    for withdraw, a in ops:
        if withdraw and a.prefix in table:
            assert table.withdraw(a.prefix) == trie.withdraw(a.prefix)
        else:
            table.announce(a)
            trie.insert(a)
        # Query between mutations, so a stale snapshot would be caught.
        table.resolve(a.prefix.base)
    return table, trie


def assert_table_matches_trie(table, trie, bits=8):
    current = list(trie)
    assert list(table) == current
    for address in range(1 << bits):
        expected = naive_lpm(current, address)
        assert table.resolve(address) == trie.longest_prefix_match(address)
        got = table.resolve(address)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.prefix == expected.prefix
        if current:
            # Same announcement as the trie's search, ties included: the
            # minimum (distance, length), i.e. the shorter of two nested
            # blocks at one distance.
            found, dist = table.nearest(address)
            assert (found, dist) == trie.nearest_prefix(address)
            assert (dist, found.prefix.length) == min(
                (xor_distance_to(a.prefix, address), a.prefix.length) for a in current
            )
    assert table.announced_span() == trie.announced_span()


class TestTableAgreesWithTrie:
    """:class:`GlobalPrefixTable` answers from its sorted snapshot; the trie
    and a naive scan are the independent references."""

    @given(announcement_sets())
    @settings(max_examples=150)
    def test_overlapping_sets(self, announcements):
        table = GlobalPrefixTable(announcements, bits=8)
        trie = PrefixTrie(bits=8)
        for a in announcements:
            trie.insert(a)
        assert_table_matches_trie(table, trie)

    @given(churn_traces())
    @settings(max_examples=150)
    def test_after_churn(self, ops):
        table, trie = replay(ops)
        assert_table_matches_trie(table, trie)

    def test_reannounced_prefix_moves_origin(self):
        table = GlobalPrefixTable(bits=8)
        table.announce(small_ann(0, 1, 1))
        table.announce(small_ann(64, 2, 2))
        assert table.resolve(70).asn == 2
        table.announce(small_ann(64, 2, 3))  # re-origin after a query
        assert table.resolve(70).asn == 3
        assert table.nearest(70)[0].asn == 1  # shortest covering prefix
        assert table.prefixes_of(2) == []
        assert table.prefixes_of(3) == [small_ann(64, 2, 3).prefix]
        assert [a.asn for a in table] == [1, 3]

    def test_nested_tie_picks_shorter(self):
        # Address 0 is 128 away from both 128/1 and 128/4 (nested blocks).
        outer, inner = small_ann(128, 1, 1), small_ann(128, 4, 2)
        table = GlobalPrefixTable([inner, outer], bits=8)
        trie = PrefixTrie(bits=8)
        trie.insert(inner)
        trie.insert(outer)
        assert table.nearest(0) == (outer, 128) == trie.nearest_prefix(0)
        table.withdraw(outer.prefix)
        assert table.nearest(0) == (inner, 128)

    def test_withdraw_then_query(self):
        table = GlobalPrefixTable([small_ann(0, 2, 1), small_ann(0, 4, 2)], bits=8)
        assert table.resolve(3).asn == 2
        assert table.announced_span() == 64
        table.withdraw(small_ann(0, 2, 1).prefix)
        assert table.resolve(3).asn == 2
        assert table.resolve(20) is None
        assert table.announced_span() == 16
        assert table.nearest(20) == (small_ann(0, 4, 2), 16)
        table.withdraw(small_ann(0, 4, 2).prefix)
        assert table.resolve(3) is None
        assert table.announced_span() == 0
        with pytest.raises(EmptyPrefixTableError):
            table.nearest(3)

    def test_nearest_on_a_generated_table(self):
        # 32-bit descent over a DFZ-like table, mostly from IP holes.
        table = generate_global_prefix_table(
            list(range(1, 41)), AllocationConfig(prefixes_per_as=5.0), seed=7
        )
        trie = PrefixTrie()
        for a in table:
            trie.insert(a)
        rng = random.Random(3)
        for _ in range(2000):
            address = rng.getrandbits(32)
            assert table.nearest(address) == trie.nearest_prefix(address)

    def test_out_of_range_address(self):
        table = GlobalPrefixTable([small_ann(0, 1, 1)], bits=8)
        for query in (table.resolve, table.nearest):
            with pytest.raises(AddressError):
                query(256)


def arrays_of(announcements):
    """``(bases, lengths, asns)`` of ``announcements`` in the given order."""
    return (
        np.array([a.prefix.base for a in announcements], dtype=np.uint64),
        np.array([a.prefix.length for a in announcements], dtype=np.int64),
        np.array([a.asn for a in announcements], dtype=np.int64),
    )


def assert_same_table(table, reference, trie, pool, bits=8):
    """``table`` answers like ``reference`` (announced one by one) and the
    trie on everything a caller can read."""
    assert table.generation == reference.generation
    assert len(table) == len(reference) == len(trie)
    assert list(table) == list(reference) == list(trie)
    assert [p in table for p in pool] == [p in reference for p in pool]
    assert table.asns() == reference.asns() == sorted({a.asn for a in trie})
    for asn in range(1, 6):
        assert table.prefixes_of(asn) == reference.prefixes_of(asn)
        if asn in table.asns():
            assert (table.representative_address(asn)
                    == reference.representative_address(asn))
        else:
            with pytest.raises(PrefixTableError):
                table.representative_address(asn)
    for address in range(1 << bits):
        assert table.resolve(address) == trie.longest_prefix_match(address)
    for address in range(0, 1 << bits, 7):
        if len(trie):
            assert table.nearest(address) == trie.nearest_prefix(address)


class TestArrayBackedTable:
    """A table built from arrays, then churned, stays equal to one
    announced prefix by prefix and to the trie at every step."""

    @given(announcement_sets(), churn_traces(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_churn_after_from_arrays(self, announcements, ops, rnd):
        shuffled = list(announcements)
        rnd.shuffle(shuffled)  # from_arrays sorts rows given out of order
        table = GlobalPrefixTable.from_arrays(*arrays_of(shuffled), bits=8)
        reference = GlobalPrefixTable(bits=8)
        trie = PrefixTrie(bits=8)
        for a in announcements:
            reference.announce(a)
            trie.insert(a)
        pool = [a.prefix for a in announcements] + [a.prefix for _, a in ops]
        assert_same_table(table, reference, trie, pool)
        for withdraw, a in ops:
            clone, before = table.copy(), list(reference)
            if withdraw and a.prefix in reference:
                assert table.withdraw(a.prefix) == reference.withdraw(a.prefix)
                trie.withdraw(a.prefix)
            else:
                table.announce(a)
                reference.announce(a)
                trie.insert(a)
            assert_same_table(table, reference, trie, pool)
            # The copy kept the state before this step, and mutating it
            # leaves the table alone.
            assert list(clone) == before
            clone.announce(small_ann(0, 0, 5))
            if len(clone) > 1:
                clone.withdraw(next(iter(clone)).prefix)
            assert_same_table(table, reference, trie, pool)
