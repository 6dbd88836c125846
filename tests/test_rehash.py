"""Tests for Algorithm 1 — hashing GUIDs into announced space."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.prefix import Announcement, Prefix
from repro.bgp.table import GlobalPrefixTable
from repro.core.guid import GUID
from repro.errors import ConfigurationError
from repro.fastpath.placement import resolve_batch
from repro.hashing.hashers import FastHasher, Sha256Hasher
from repro.hashing.rehash import GuidPlacer, HashResolution, hole_probability

from .addressing import from_cidr
from .prefix_trie import PrefixTrie
from .test_trie import churn_traces, small_ann


def ann(cidr: str, asn: int) -> Announcement:
    return Announcement(from_cidr(cidr), asn)


class TestGuidPlacer:
    def test_resolution_lands_in_announced_space(self, base_table):
        placer = GuidPlacer(Sha256Hasher(5), base_table)
        for i in range(50):
            for res in placer.resolve_all(GUID.from_name(f"g{i}")):
                if not res.via_deputy:
                    assert base_table.owner_asn(res.address) == res.asn

    def test_deterministic(self, base_table):
        placer = GuidPlacer(Sha256Hasher(5), base_table)
        g = GUID.from_name("device")
        assert placer.hosting_asns(g) == placer.hosting_asns(g)

    def test_k_property(self, base_table):
        placer = GuidPlacer(Sha256Hasher(3), base_table)
        assert placer.k == 3
        assert len(placer.resolve_all(GUID(1))) == 3

    def test_first_hash_hit_uses_one_attempt(self):
        # Full cover: the very first hash is always announced.
        table = GlobalPrefixTable([Announcement(Prefix(0, 0), 42)])
        placer = GuidPlacer(Sha256Hasher(2), table)
        for res in placer.resolve_all(GUID(7)):
            assert res.attempts == 1
            assert res.asn == 42
            assert not res.via_deputy

    def test_deputy_fallback_on_tiny_coverage(self):
        # One /32: rehashing will essentially never hit it, so every
        # placement must go through the nearest-prefix deputy.
        table = GlobalPrefixTable([ann("1.2.3.4/32", 9)])
        placer = GuidPlacer(Sha256Hasher(1), table, max_rehashes=3)
        res = placer.resolve_one(GUID.from_name("x"), 0)
        assert res.via_deputy
        assert res.asn == 9
        assert res.attempts == 3

    def test_max_rehashes_validation(self, base_table):
        with pytest.raises(ConfigurationError):
            GuidPlacer(Sha256Hasher(1), base_table, max_rehashes=0)

    def test_hash_family_wider_than_table_rejected(self):
        # Its addresses would fall outside the table's address space.
        table = GlobalPrefixTable([small_ann(0, 1, 3)], bits=8)
        with pytest.raises(ConfigurationError, match="wider"):
            GuidPlacer(Sha256Hasher(1, address_bits=9), table)
        assert GuidPlacer(Sha256Hasher(1, address_bits=7), table).hosting_asns(5) == [3]

    def test_rehash_reduces_deputy_usage(self, base_table):
        few = GuidPlacer(Sha256Hasher(1), base_table, max_rehashes=1)
        many = GuidPlacer(Sha256Hasher(1), base_table, max_rehashes=10)
        guids = [GUID.from_name(f"d{i}") for i in range(300)]
        deputies_few = sum(few.resolve_one(g, 0).via_deputy for g in guids)
        deputies_many = sum(many.resolve_one(g, 0).via_deputy for g in guids)
        assert deputies_many < deputies_few


class TestHoleProbability:
    def test_paper_example(self):
        # §III-B: ratio 0.55, M = 10 → ~0.034%.
        assert hole_probability(0.55, 10) == pytest.approx(0.45**10)
        assert hole_probability(0.55, 10) == pytest.approx(3.4e-4, rel=0.05)

    def test_edges(self):
        assert hole_probability(1.0, 1) == 0.0
        assert hole_probability(0.0, 5) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            hole_probability(1.5, 3)
        with pytest.raises(ConfigurationError):
            hole_probability(0.5, 0)


class TestBulkPlacement:
    def test_bulk_matches_scalar(self, base_table):
        k = 3
        hasher = FastHasher(k)
        placer = GuidPlacer(hasher, base_table, max_rehashes=6)
        values = [GUID.from_name(f"b{i}").value for i in range(80)]
        folded = hasher.fold_guids(values)
        index = base_table.build_interval_index()
        asns, attempts, via_deputy = resolve_batch(placer, folded, index)
        for row, value in enumerate(values):
            for i in range(k):
                res = placer.resolve_one(value, i)
                assert asns[row, i] == res.asn
                assert attempts[row, i] == res.attempts
                assert bool(via_deputy[row, i]) == res.via_deputy

    def test_bulk_never_leaves_holes(self, base_table):
        hasher = FastHasher(5)
        rng = np.random.default_rng(0)
        folded = rng.integers(0, 2**63, size=2000, dtype=np.uint64)
        index = base_table.build_interval_index()
        placer = GuidPlacer(hasher, base_table)
        asns, _attempts, _dep = resolve_batch(placer, folded, index)
        assert (asns >= 0).all()

    def test_attempt_distribution_geometric(self, base_table):
        # P(attempts > a) ≈ (1 - ratio)^a.
        hasher = FastHasher(1)
        rng = np.random.default_rng(1)
        folded = rng.integers(0, 2**63, size=30_000, dtype=np.uint64)
        index = base_table.build_interval_index()
        placer = GuidPlacer(hasher, base_table)
        _asns, attempts, _dep = resolve_batch(placer, folded, index)
        ratio = index.announced_fraction()
        frac_two_plus = float((attempts > 1).mean())
        assert frac_two_plus == pytest.approx(1.0 - ratio, abs=0.02)


def reference_chain(family, trie, table, guid, index, max_rehashes):
    """Algorithm 1 step by step: hash, trie LPM, re-hash the address with
    the same function through holes, then the table's nearest prefix."""
    value = family.hash_one(guid, index)
    for attempt in range(1, max_rehashes + 1):
        hit = trie.longest_prefix_match(value)
        if hit is not None:
            return HashResolution(value, hit.asn, attempt, False)
        if attempt < max_rehashes:
            value = family.hash_one(value, index)  # rehash(value, index)
    return HashResolution(value, table.nearest(value)[0].asn, max_rehashes, True)


@st.composite
def sparse_traces(draw, bits=8):
    """A few long prefixes (/6 to /8): most hashes land in holes, so
    short chains end at the deputy."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        length = draw(st.integers(min_value=6, max_value=bits))
        base = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
        asn = draw(st.integers(min_value=1, max_value=4))
        ops.append((draw(st.booleans()), small_ann(base, length, asn, bits=bits)))
    return ops


class TestChainAgainstReference:
    """The placer's chain (one hash call per GUID, ``owner_asn`` LPM) on
    random overlapping 8-bit tables, checked after every announce or
    withdraw, so a placement read from a stale snapshot is caught."""

    def check(self, ops, k, max_rehashes, guids):
        table = GlobalPrefixTable(bits=8)
        trie = PrefixTrie(bits=8)
        family = Sha256Hasher(k, address_bits=8)
        placer = GuidPlacer(family, table, max_rehashes=max_rehashes)
        for withdraw, a in ops:
            if withdraw and a.prefix in table:
                table.withdraw(a.prefix)
                trie.withdraw(a.prefix)
            else:
                table.announce(a)
                trie.insert(a)
            for address in range(256):
                got = table.resolve(address)
                assert table.owner_asn(address) == (None if got is None else got.asn)
            if not len(table):
                continue
            asns, attempts, via_deputy = resolve_batch(placer, guids)
            for row, guid in enumerate(guids):
                chains = placer.resolve_all(guid)
                assert chains == [
                    reference_chain(family, trie, table, guid, i, max_rehashes)
                    for i in range(k)
                ]
                assert chains == [placer.resolve_one(guid, i) for i in range(k)]
                assert placer.hosting_asns(guid) == [res.asn for res in chains]
                assert asns[row].tolist() == [res.asn for res in chains]
                assert attempts[row].tolist() == [res.attempts for res in chains]
                assert via_deputy[row].tolist() == [res.via_deputy for res in chains]

    @given(
        st.one_of(churn_traces(), sparse_traces()),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=0, max_value=2**64), min_size=1, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_and_batch(self, ops, k, max_rehashes, guids):
        self.check(ops, k, max_rehashes, guids)

    def test_sparse_table_takes_the_deputy(self):
        ops = [(False, small_ann(200, 8, 3)), (False, small_ann(16, 7, 4))]
        guids = list(range(40))
        self.check(ops, 2, 2, guids)
        table = GlobalPrefixTable([a for _, a in ops], bits=8)
        placer = GuidPlacer(Sha256Hasher(2, address_bits=8), table, max_rehashes=2)
        assert any(res.via_deputy for g in guids for res in placer.resolve_all(g))
