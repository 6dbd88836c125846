"""Property tests: the vectorized interval index must agree with the trie."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.interval_index import HOLE, IntervalIndex
from repro.bgp.prefix import Announcement, Prefix
from repro.bgp.table import GlobalPrefixTable
from repro.bgp.trie import PrefixTrie
from repro.errors import EmptyPrefixTableError

from .test_trie import announcement_sets, churn_traces, naive_lpm, replay, small_ann


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(EmptyPrefixTableError):
            IntervalIndex([], bits=8)

    def test_single_prefix(self):
        idx = IntervalIndex([small_ann(64, 2, 7)], bits=8)
        assert idx.lookup_one(70) == 7
        assert idx.lookup_one(0) == HOLE
        assert idx.announced_span() == 64
        assert idx.announced_fraction() == pytest.approx(0.25)

    def test_duplicate_prefix_first_listed_wins(self):
        idx = IntervalIndex([small_ann(0, 2, 1), small_ann(0, 2, 2)], bits=8)
        assert idx.lookup_one(0) == 1

    def test_full_cover(self):
        idx = IntervalIndex([Announcement(Prefix(0, 0, 8), 3)], bits=8)
        assert idx.announced_fraction() == 1.0
        assert (idx.lookup_batch(np.arange(256)) == 3).all()


class TestAgreementWithTrie:
    @given(announcement_sets())
    @settings(max_examples=150)
    def test_every_address_agrees(self, announcements):
        trie = PrefixTrie(bits=8)
        for a in announcements:
            trie.insert(a)
        idx = IntervalIndex(announcements, bits=8)
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
        idx = IntervalIndex(announcements, bits=8)
        assert idx.announced_span() == trie.announced_span()


class TestTableIndex:
    """The table's memoised index shares the table's decomposition; the
    trie and a naive scan check it independently."""

    @given(announcement_sets())
    @settings(max_examples=150)
    def test_equals_index_of_announcements(self, announcements):
        table_index = GlobalPrefixTable(announcements, bits=8).build_interval_index()
        direct = IntervalIndex(announcements, bits=8)
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
        idx = IntervalIndex([outer, inner], bits=8)
        spans = idx.effective_span_by_asn()
        assert spans[2] == 16
        assert spans[1] == 48

    @given(announcement_sets())
    def test_spans_sum_to_announced(self, announcements):
        idx = IntervalIndex(announcements, bits=8)
        spans = idx.effective_span_by_asn()
        assert sum(spans.values()) == idx.announced_span()

    @given(announcement_sets())
    def test_spans_match_per_address_count(self, announcements):
        idx = IntervalIndex(announcements, bits=8)
        owners = idx.lookup_batch(np.arange(256, dtype=np.uint64))
        spans = idx.effective_span_by_asn()
        for asn, span in spans.items():
            assert span == int((owners == asn).sum())


class TestBatchSemantics:
    def test_is_announced_batch(self):
        idx = IntervalIndex([small_ann(0, 1, 5)], bits=8)  # 0-127
        flags = idx.is_announced_batch(np.array([0, 127, 128, 255], dtype=np.uint64))
        assert flags.tolist() == [True, True, False, False]

    def test_lookup_batch_preserves_shape(self):
        idx = IntervalIndex([small_ann(0, 1, 5)], bits=8)
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
