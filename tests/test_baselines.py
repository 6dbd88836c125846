"""Tests for the baseline mapping schemes (§II-B, §VI)."""

import math

import numpy as np
import pytest

from repro.baselines.dht import ChordDHT
from repro.baselines.dns_like import DNSLike
from repro.baselines.mobileip import MobileIP
from repro.baselines.onehop_dht import OneHopDHT
from repro.core.guid import GUID
from repro.errors import ConfigurationError, MappingNotFoundError


@pytest.fixture
def guids():
    return [GUID.from_name(f"base-{i}") for i in range(40)]


def insert_all(scheme, guids, table, asns, rng):
    homes = {}
    for g in guids:
        home = int(rng.choice(asns))
        scheme.insert(g, [table.representative_address(home)], home)
        homes[g] = home
    return homes


class TestChordDHT:
    def test_route_ends_at_owner(self, router, guids, asns, rng):
        chord = ChordDHT(router)
        for g in guids[:10]:
            src = int(rng.choice(asns))
            path = chord.route(src, g)
            assert path[0] == src
            assert path[-1] == chord._owner_of(g)

    def test_hops_logarithmic(self, router, guids, asns, rng):
        chord = ChordDHT(router)
        sources = [int(rng.choice(asns)) for _ in guids]
        mean_hops = chord.mean_overlay_hops(guids, sources)
        n = len(asns)
        assert 1.0 <= mean_hops <= 2.5 * math.log2(n)

    def test_insert_then_lookup(self, router, base_table, guids, asns, rng):
        chord = ChordDHT(router)
        insert_all(chord, guids, base_table, asns, rng)
        for g in guids[:10]:
            src = int(rng.choice(asns))
            out = chord.lookup(g, src)
            assert out.rtt_ms > 0
            # Zero hops only when the querier itself owns the key.
            if src != chord._owner_of(g):
                assert out.overlay_hops >= 1

    def test_lookup_unknown_raises(self, router):
        with pytest.raises(MappingNotFoundError):
            ChordDHT(router).lookup(GUID.from_name("ghost"), 1)

    def test_replication_spreads_to_successors(self, router, base_table, asns, rng):
        chord = ChordDHT(router, replication=3)
        g = GUID.from_name("replicated")
        home = int(rng.choice(asns))
        chord.insert(g, [base_table.representative_address(home)], home)
        holders = [asn for asn, store in chord.stores.items() if store.get(g)]
        assert len(holders) == 3

    def test_maintenance_positive(self, router):
        assert ChordDHT(router).maintenance_overhead_bps() > 0

    def test_slower_than_one_hop(self, router, base_table, guids, asns, rng):
        chord = ChordDHT(router)
        onehop = OneHopDHT(router)
        insert_all(chord, guids, base_table, asns, rng)
        insert_all(onehop, guids, base_table, asns, rng)
        chord_rtts = [
            chord.lookup(g, int(rng.choice(asns))).rtt_ms for g in guids
        ]
        onehop_rtts = [
            onehop.lookup(g, int(rng.choice(asns))).rtt_ms for g in guids
        ]
        assert np.mean(chord_rtts) > np.mean(onehop_rtts)

    def test_validation(self, router):
        with pytest.raises(ConfigurationError):
            ChordDHT(router, replication=0)
        with pytest.raises(ConfigurationError):
            ChordDHT(router, stabilization_period_s=0)


class TestOneHopDHT:
    def test_single_hop(self, router, base_table, guids, asns, rng):
        onehop = OneHopDHT(router)
        insert_all(onehop, guids, base_table, asns, rng)
        for g in guids[:10]:
            out = onehop.lookup(g, int(rng.choice(asns)))
            assert out.overlay_hops == 1

    def test_lookup_rtt_is_owner_rtt(self, router, base_table, guids, asns, rng):
        onehop = OneHopDHT(router)
        insert_all(onehop, guids, base_table, asns, rng)
        g = guids[0]
        src = int(rng.choice(asns))
        out = onehop.lookup(g, src)
        assert out.rtt_ms == pytest.approx(router.rtt_ms(src, onehop._owner_of(g)))

    def test_maintenance_scales_with_n(self, router):
        model = OneHopDHT(router, churn_events_per_node_per_hour=1.0)
        expected = model.n * 1.0 / 3600.0 * 256.0
        assert model.maintenance_overhead_bps() == pytest.approx(expected)

    def test_unknown_raises(self, router):
        with pytest.raises(MappingNotFoundError):
            OneHopDHT(router).lookup(GUID.from_name("ghost"), 1)


class TestMobileIP:
    def test_home_pinned_at_first_registration(self, router, base_table, asns, rng):
        mip = MobileIP(router)
        g = GUID.from_name("roamer")
        first, second = asns[0], asns[1]
        mip.insert(g, [base_table.representative_address(first)], first)
        mip.insert(g, [base_table.representative_address(second)], second)
        assert mip.home_of(g) == first

    def test_lookup_goes_to_home(self, router, base_table, asns, rng):
        mip = MobileIP(router)
        g = GUID.from_name("roamer")
        home = asns[0]
        mip.insert(g, [base_table.representative_address(home)], home)
        src = asns[10]
        out = mip.lookup(g, src)
        assert out.rtt_ms == pytest.approx(router.rtt_ms(src, home))

    def test_update_cost_grows_with_distance_from_home(
        self, router, base_table, asns
    ):
        mip = MobileIP(router)
        g = GUID.from_name("roamer")
        home = asns[0]
        mip.insert(g, [base_table.representative_address(home)], home)
        far = max(asns, key=lambda a: router.one_way_ms(home, a))
        cost = mip.insert(g, [base_table.representative_address(far)], far)
        assert cost == pytest.approx(router.rtt_ms(far, home))

    def test_triangle_stretch_at_least_one(self, router, base_table, asns, rng):
        mip = MobileIP(router)
        g = GUID.from_name("roamer")
        mip.insert(g, [base_table.representative_address(asns[0])], asns[0])
        mip.insert(g, [base_table.representative_address(asns[5])], asns[5])
        for _ in range(10):
            stretch = mip.triangle_stretch(g, int(rng.choice(asns)))
            assert stretch >= 1.0 - 1e-9

    def test_unknown_raises(self, router):
        with pytest.raises(MappingNotFoundError):
            MobileIP(router).lookup(GUID.from_name("ghost"), 1)


class TestDNSLike:
    def test_miss_then_cache_hit(self, router, base_table, asns):
        dns = DNSLike(router, ttl_ms=10_000.0)
        g = GUID.from_name("site")
        home, src = asns[0], asns[10]
        dns.insert(g, [base_table.representative_address(home)], home)
        cold = dns.lookup(g, src)
        warm = dns.lookup(g, src)
        assert cold.overlay_hops == 3
        assert warm.overlay_hops == 0
        assert warm.rtt_ms < cold.rtt_ms
        assert dns.cache_hits == 1 and dns.cache_misses == 1

    def test_ttl_expiry(self, router, base_table, asns):
        dns = DNSLike(router, ttl_ms=1000.0)
        g = GUID.from_name("site")
        dns.insert(g, [base_table.representative_address(asns[0])], asns[0])
        dns.lookup(g, asns[10])
        dns.advance_time(2000.0)
        dns.lookup(g, asns[10])
        assert dns.cache_misses == 2

    def test_stale_answers_counted_under_mobility(self, router, base_table, asns):
        dns = DNSLike(router, ttl_ms=60_000.0)
        g = GUID.from_name("mobile")
        dns.insert(g, [base_table.representative_address(asns[0])], asns[0])
        dns.lookup(g, asns[10])  # populate cache
        dns.insert(g, [base_table.representative_address(asns[1])], asns[1])  # move
        out = dns.lookup(g, asns[10])  # cache still fresh by TTL → stale data
        assert dns.stale_answers == 1
        assert out.locators == (base_table.representative_address(asns[0]),)

    def test_roots_are_high_degree(self, router, topology):
        dns = DNSLike(router, n_roots=5)
        degrees = sorted((topology.degree(a) for a in topology.asns()), reverse=True)
        for root in dns.root_asns:
            assert topology.degree(root) >= degrees[9]

    def test_unknown_raises(self, router):
        with pytest.raises(MappingNotFoundError):
            DNSLike(router).lookup(GUID.from_name("ghost"), 1)

    def test_validation(self, router):
        with pytest.raises(ConfigurationError):
            DNSLike(router, n_roots=0)
        with pytest.raises(ConfigurationError):
            DNSLike(router, ttl_ms=-1)
        with pytest.raises(ConfigurationError):
            DNSLike(router).advance_time(-5.0)
