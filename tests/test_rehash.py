"""Tests for Algorithm 1 — hashing GUIDs into announced space."""

import numpy as np
import pytest

from repro.bgp.prefix import Announcement, Prefix
from repro.bgp.table import GlobalPrefixTable
from repro.core.guid import GUID
from repro.errors import ConfigurationError
from repro.fastpath.placement import resolve_batch
from repro.hashing.hashers import FastHasher, Sha256Hasher
from repro.hashing.rehash import GuidPlacer, hole_probability


def ann(cidr: str, asn: int) -> Announcement:
    return Announcement(Prefix.from_cidr(cidr), asn)


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
