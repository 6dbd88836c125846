"""Property tests: the vectorized interval index must agree with the trie."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.interval_index import HOLE, IntervalIndex, decompose, owner_intervals
from repro.bgp.prefix import Announcement, Prefix
from repro.bgp.table import GlobalPrefixTable
from repro.errors import EmptyPrefixTableError

from .addressing import from_cidr
from .prefix_trie import PrefixTrie
from .test_trie import announcement_sets, churn_traces, naive_lpm, replay, small_ann


def index_of(announcements):
    """The interval index of an 8-bit table holding ``announcements``."""
    return GlobalPrefixTable(announcements, bits=8).build_interval_index()


def check_decompose(prefixes, bits=8, addresses=None):
    """``decompose`` of ``(base, length)`` pairs against the trie, at every
    address (8-bit) or at each block's edges, plus its invariants."""
    rows = sorted(set(prefixes))
    bases = np.array([b for b, _ in rows], dtype=np.uint64)
    lengths = np.array([l for _, l in rows], dtype=np.int64)
    starts, labels = decompose(bases, lengths, bits)
    assert starts.dtype == np.uint64 and labels.dtype == np.int64
    assert starts[0] == 0
    assert np.all(starts[1:] > starts[:-1])  # no empty interval
    assert np.all(labels[1:] != labels[:-1])
    trie = PrefixTrie(bits=bits)
    for row, (base, length) in enumerate(rows):
        trie.insert(Announcement(Prefix(base, length, bits), row))
    if addresses is None:
        if bits <= 8:
            addresses = range(1 << bits)
        else:
            span = [1 << (bits - length) for _, length in rows]
            edges = {0, (1 << bits) - 1}
            for (base, _), width in zip(rows, span):
                edges |= {base - 1, base, base + width - 1, base + width}
            addresses = sorted(a for a in edges if 0 <= a < 1 << bits)
    starts_list, labels_list = starts.tolist(), labels.tolist()
    for address in addresses:
        at = np.searchsorted(starts, np.uint64(address), side="right") - 1
        hit = trie.longest_prefix_match(address)
        assert labels_list[at] == (HOLE if hit is None else hit.asn), address
    return starts_list, labels_list


class TestDecomposeEdges:
    def test_nested_blocks_share_an_end(self):
        # 0/1, 64/2, 96/3 and 124/6 all end at 128.
        starts, labels = check_decompose([(0, 1), (64, 2), (96, 3), (124, 6)])
        assert starts == [0, 64, 96, 124, 128]
        assert labels == [0, 1, 2, 3, HOLE]

    def test_sibling_starts_where_parent_ends(self):
        # 0/2 (with a child 32/3 ending with it) and then 64/2, 128/1.
        starts, labels = check_decompose([(0, 2), (32, 3), (64, 2), (128, 1)])
        assert starts == [0, 32, 64, 128]
        assert labels == [0, 1, 2, 3]

    def test_slash_zero_cover(self):
        starts, labels = check_decompose([(0, 0), (0, 8), (16, 4), (248, 5)])
        assert starts == [0, 1, 16, 32, 248]
        assert labels == [1, 0, 2, 0, 3]

    def test_slash_32_host_routes(self):
        def p(cidr):
            prefix = from_cidr(cidr)
            return prefix.base, prefix.length

        check_decompose(
            [
                p("0.0.0.0/32"),
                p("10.0.0.0/8"),
                p("10.0.0.1/32"),
                p("10.0.0.2/32"),
                p("10.255.255.255/32"),
                p("11.0.0.0/32"),
                p("255.255.255.255/32"),
            ],
            bits=32,
        )

    def test_block_at_the_end_of_a_64_bit_space(self):
        starts, labels = check_decompose(
            [(0, 0), (1 << 63, 1), ((1 << 64) - 1, 64)], bits=64
        )
        assert starts == [0, 1 << 63, (1 << 64) - 1]
        assert labels == [0, 1, 2]

    @given(announcement_sets(max_count=20))
    @settings(max_examples=150)
    def test_random_nested_tables(self, announcements):
        check_decompose([(a.prefix.base, a.prefix.length) for a in announcements])

    def test_empty_table(self):
        starts, labels = decompose(
            np.zeros(0, np.uint64), np.zeros(0, np.int64), 8
        )
        assert starts.tolist() == [0] and labels.tolist() == [HOLE]
        table = GlobalPrefixTable(bits=8)
        with pytest.raises(EmptyPrefixTableError):
            table.build_interval_index()
        with pytest.raises(EmptyPrefixTableError):
            table.nearest(0)
        assert table.resolve(5) is None and table.owner_asn(5) is None


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(EmptyPrefixTableError):
            index_of([])

    def test_single_prefix(self):
        idx = index_of([small_ann(64, 2, 7)])
        assert idx.lookup_one(70) == 7
        assert idx.lookup_one(0) == HOLE
        assert idx.announced_span() == 64
        assert idx.announced_fraction() == pytest.approx(0.25)

    def test_full_cover(self):
        idx = index_of([Announcement(Prefix(0, 0, 8), 3)])
        assert idx.announced_fraction() == 1.0
        assert (idx.lookup_batch(np.arange(256)) == 3).all()


class TestAgreementWithTrie:
    @given(announcement_sets())
    @settings(max_examples=150)
    def test_every_address_agrees(self, announcements):
        trie = PrefixTrie(bits=8)
        for a in announcements:
            trie.insert(a)
        idx = index_of(announcements)
        owners = idx.lookup_batch(np.arange(256, dtype=np.uint64))
        for addr in range(256):
            expected = trie.longest_prefix_match(addr)
            expected_asn = HOLE if expected is None else expected.asn
            assert owners[addr] == expected_asn, f"mismatch at address {addr}"

    @given(announcement_sets())
    def test_announced_span_agrees(self, announcements):
        trie = PrefixTrie(bits=8)
        for a in announcements:
            trie.insert(a)
        idx = index_of(announcements)
        assert idx.announced_span() == trie.announced_span()


class TestTableIndex:
    """The table's memoised index shares the table's decomposition; the
    trie and a naive scan check it independently."""

    @given(announcement_sets())
    @settings(max_examples=150)
    def test_equals_index_of_announcements(self, announcements):
        table_index = index_of(announcements)
        rows = sorted((a.prefix.base, a.prefix.length, a.asn) for a in announcements)
        bases, lengths, asns = (np.array(column) for column in zip(*rows))
        starts, labels = decompose(bases.astype(np.uint64), lengths, 8)
        direct = IntervalIndex(*owner_intervals(starts, labels, asns), bits=8)
        assert np.array_equal(table_index.starts, direct.starts)
        assert np.array_equal(table_index.owners, direct.owners)

    @given(churn_traces())
    @settings(max_examples=150)
    def test_tracks_churn(self, ops):
        table, trie = replay(ops)
        if not len(table):
            with pytest.raises(EmptyPrefixTableError):
                table.build_interval_index()
            return
        owners = table.build_interval_index().lookup_batch(np.arange(256, dtype=np.uint64))
        current = list(trie)
        for addr in range(256):
            expected = naive_lpm(current, addr)
            via_trie = trie.longest_prefix_match(addr)
            assert owners[addr] == (HOLE if expected is None else expected.asn)
            assert owners[addr] == (HOLE if via_trie is None else via_trie.asn)
        assert table.build_interval_index().announced_span() == trie.announced_span()

    def test_memoised_per_generation(self):
        table = GlobalPrefixTable([small_ann(0, 2, 1)], bits=8)
        first = table.build_interval_index()
        assert table.build_interval_index() is first
        assert not first.starts.flags.writeable
        table.announce(small_ann(0, 4, 2))
        second = table.build_interval_index()
        assert second is not first
        assert second.lookup_one(3) == 2 and first.lookup_one(3) == 1


class TestEffectiveSpans:
    def test_overlap_assigns_to_most_specific(self):
        outer = small_ann(0, 2, 1)  # 0-63
        inner = small_ann(0, 4, 2)  # 0-15
        idx = index_of([outer, inner])
        spans = idx.effective_span_by_asn()
        assert spans[2] == 16
        assert spans[1] == 48

    @given(announcement_sets())
    def test_spans_sum_to_announced(self, announcements):
        idx = index_of(announcements)
        spans = idx.effective_span_by_asn()
        assert sum(spans.values()) == idx.announced_span()

    @given(announcement_sets())
    def test_spans_match_per_address_count(self, announcements):
        idx = index_of(announcements)
        owners = idx.lookup_batch(np.arange(256, dtype=np.uint64))
        spans = idx.effective_span_by_asn()
        for asn, span in spans.items():
            assert span == int((owners == asn).sum())


class TestBatchSemantics:
    def test_is_announced_batch(self):
        idx = index_of([small_ann(0, 1, 5)])  # 0-127
        flags = idx.is_announced_batch(np.array([0, 127, 128, 255], dtype=np.uint64))
        assert flags.tolist() == [True, True, False, False]

    def test_lookup_batch_preserves_shape(self):
        idx = index_of([small_ann(0, 1, 5)])
        out = idx.lookup_batch(np.zeros((3,), dtype=np.uint64))
        assert out.shape == (3,)

    def test_realistic_scale(self, base_table):
        # The session-wide generated table: the interval index must agree
        # with the trie on a large random address sample.
        idx = base_table.build_interval_index()
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 2**32, size=3000, dtype=np.uint64)
        owners = idx.lookup_batch(addrs)
        for addr, owner in zip(addrs.tolist()[:500], owners.tolist()[:500]):
            expected = base_table.resolve(int(addr))
            assert owner == (HOLE if expected is None else expected.asn)
        assert idx.announced_fraction() == pytest.approx(
            base_table.announcement_ratio(), rel=1e-9
        )
