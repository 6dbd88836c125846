"""Tests for the DMap resolver protocol (insert / update / lookup)."""

import inspect

import numpy as np
import pytest

from repro.core.guid import GUID, NetworkAddress
from repro.core.mapping import MappingEntry
from repro.core.resolver import (
    DMapResolver,
    FailureModel,
    LookupResult,
    OUTCOME_HIT,
    OUTCOME_MISSING,
    OUTCOME_TIMEOUT,
    WriteResult,
    adaptive_timeout_ms,
)
from repro.bgp.allocation import AllocationConfig, generate_global_prefix_table
from repro.errors import ConfigurationError, LookupFailedError, RoutingError
from repro.obs.trace import AttemptTrace
from repro.topology.routing import Router

from .topology_fixtures import linked


def locator(table, asn):
    return table.representative_address(asn)


class _FailAt(FailureModel):
    """``outcome`` at the given ASs, a hit everywhere else."""

    def __init__(self, outcome, asns):
        self.outcome = outcome
        self.asns = set(asns)

    def lookup_outcome(self, asn, guid):
        return self.outcome if asn in self.asns else OUTCOME_HIT


@pytest.fixture
def populated(resolver, base_table, asns, rng):
    """Resolver with 30 hosts inserted; returns (resolver, host_map)."""
    hosts = {}
    for i in range(30):
        guid = GUID.from_name(f"host-{i}")
        home = int(rng.choice(asns))
        resolver.insert(guid, [locator(base_table, home)], home)
        hosts[guid] = home
    return resolver, hosts


class TestInsert:
    def test_insert_places_k_replicas(self, resolver, base_table, asns):
        guid = GUID.from_name("phone")
        result = resolver.insert(guid, [locator(base_table, asns[0])], asns[0])
        assert len(result.replica_set.global_replicas) == 5
        for res in result.replica_set.global_replicas:
            assert resolver.store_at(res.asn).get(guid) is not None

    def test_update_latency_is_max_of_parallel_writes(
        self, resolver, base_table, asns
    ):
        guid = GUID.from_name("phone")
        result = resolver.insert(guid, [locator(base_table, asns[0])], asns[0])
        assert result.rtt_ms == max(result.per_replica_rtt_ms)
        assert len(result.per_replica_rtt_ms) == 5

    def test_local_copy_written(self, resolver, base_table, asns):
        guid = GUID.from_name("phone")
        result = resolver.insert(guid, [locator(base_table, asns[3])], asns[3])
        assert result.replica_set.local_asn == asns[3]
        assert resolver.store_at(asns[3]).get(guid) is not None

    def test_local_replica_disabled(self, base_table, router, asns):
        resolver = DMapResolver(base_table, router, k=5, local_replica=False)
        guid = GUID.from_name("phone")
        result = resolver.insert(guid, [locator(base_table, asns[3])], asns[3])
        assert result.replica_set.local_asn is None

    def test_placement_is_stateless_derivable(self, resolver, base_table, asns):
        guid = GUID.from_name("phone")
        result = resolver.insert(guid, [locator(base_table, asns[0])], asns[0])
        assert list(result.replica_set.global_asns) == resolver.placer.hosting_asns(
            guid
        )


class TestLookup:
    def test_lookup_finds_mapping(self, populated, asns, rng):
        resolver, hosts = populated
        guid = next(iter(hosts))
        result = resolver.lookup(guid, int(rng.choice(asns)))
        assert result.entry.guid == guid
        assert result.rtt_ms > 0
        assert result.attempts[-1].outcome == OUTCOME_HIT or result.used_local

    def test_lookup_rtt_equals_router_rtt_to_chosen(self, populated, asns, rng):
        resolver, hosts = populated
        guid = next(iter(hosts))
        src = int(rng.choice(asns))
        result = resolver.lookup(guid, src)
        if not result.used_local:
            assert result.rtt_ms == pytest.approx(
                resolver.router.rtt_ms(src, result.served_by)
            )

    def test_lookup_chooses_closest_replica(self, populated, asns, rng):
        resolver, hosts = populated
        guid = next(iter(hosts))
        src = int(rng.choice(asns))
        result = resolver.lookup(guid, src)
        candidates = resolver.placer.hosting_asns(guid)
        best = min(
            set(candidates), key=lambda a: resolver.router.one_way_ms(src, a)
        )
        if not result.used_local:
            assert resolver.router.one_way_ms(src, result.served_by) == pytest.approx(
                resolver.router.one_way_ms(src, best)
            )

    def test_local_replica_wins_at_home(self, populated):
        resolver, hosts = populated
        guid, home = next(iter(hosts.items()))
        candidates = set(resolver.placer.hosting_asns(guid))
        if home in candidates:
            pytest.skip("home AS happens to be a global replica")
        result = resolver.lookup(guid, home)
        # Local RTT is the intra-AS round trip — hard to beat from inside.
        local_rtt = 2.0 * resolver.router.topology.intra_latency(home)
        global_best = min(
            resolver.router.rtt_ms(home, a) for a in candidates
        )
        if local_rtt < global_best:
            assert result.used_local
            assert result.rtt_ms == pytest.approx(local_rtt)

    def test_missing_guid_fails(self, resolver, asns):
        with pytest.raises(LookupFailedError):
            resolver.lookup(GUID.from_name("never-inserted"), asns[0])

    def test_probe_missing_forces_retry(self, populated, asns, rng):
        resolver, hosts = populated
        guid = next(iter(hosts))
        src = int(rng.choice(asns))
        ordered = resolver.selector.order_candidates(
            src, resolver.placer.hosting_asns(guid)
        )
        first = ordered[0]

        clean = resolver.lookup(guid, src)
        churned = resolver.lookup(guid, src, _FailAt(OUTCOME_MISSING, [first]))
        if not churned.used_local and len(ordered) > 1:
            # Paid a full round trip to the failed replica, then the next.
            expected = resolver.router.rtt_ms(src, first) + resolver.router.rtt_ms(
                src, ordered[1]
            )
            assert churned.rtt_ms == pytest.approx(expected)
            assert churned.attempts[0].outcome == OUTCOME_MISSING
        assert churned.rtt_ms >= clean.rtt_ms

    def test_probe_timeout_costs_timeout(self, populated, asns, rng):
        resolver, hosts = populated
        guid = next(iter(hosts))
        src = int(rng.choice(asns))
        ordered = resolver.selector.order_candidates(
            src, resolver.placer.hosting_asns(guid)
        )
        first = ordered[0]

        result = resolver.lookup(guid, src, _FailAt(OUTCOME_TIMEOUT, [first]))
        if not result.used_local and len(ordered) > 1:
            timeout = max(
                resolver.timeout_ms, 2.0 * resolver.router.rtt_ms(src, first)
            )
            expected = timeout + resolver.router.rtt_ms(src, ordered[1])
            assert result.rtt_ms == pytest.approx(expected)

    def test_all_replicas_down_raises_with_elapsed(self, populated, asns):
        resolver, hosts = populated
        guid = next(iter(hosts))
        src = [a for a in asns if a != hosts[guid]][0]
        with pytest.raises(LookupFailedError) as exc_info:
            resolver.lookup(guid, src, _FailAt(OUTCOME_TIMEOUT, asns))
        unique = list(dict.fromkeys(resolver.placer.hosting_asns(guid)))
        assert exc_info.value.attempts == len(unique)
        expected = sum(
            max(resolver.timeout_ms, 2.0 * resolver.router.rtt_ms(src, asn))
            for asn in unique
        )
        assert exc_info.value.elapsed_ms == pytest.approx(expected)

    def test_all_down_but_local_saves_it(self, populated, asns):
        resolver, hosts = populated
        guid, home = next(iter(hosts.items()))
        result = resolver.lookup(guid, home, _FailAt(OUTCOME_TIMEOUT, asns))
        assert result.used_local

    def test_unknown_probe_outcome_rejected(self, populated, asns):
        resolver, hosts = populated
        guid = next(iter(hosts))
        with pytest.raises(ConfigurationError):
            resolver.lookup(guid, asns[0], _FailAt("garbled", asns))


class TestUpdate:
    def test_update_bumps_version_everywhere(self, resolver, base_table, asns):
        guid = GUID.from_name("mover")
        resolver.insert(guid, [locator(base_table, asns[0])], asns[0])
        resolver.update(guid, [locator(base_table, asns[1])], asns[1])
        for asn in resolver.replica_sets[guid].all_asns:
            assert resolver.store_at(asn).get(guid).version == 1

    def test_update_moves_local_copy(self, resolver, base_table, asns):
        guid = GUID.from_name("mover")
        old, new = asns[0], asns[1]
        resolver.insert(guid, [locator(base_table, old)], old)
        resolver.update(guid, [locator(base_table, new)], new)
        replicas = set(resolver.placer.hosting_asns(guid))
        if old not in replicas:
            assert resolver.store_at(old).get(guid) is None
        assert resolver.store_at(new).get(guid) is not None

    def test_lookup_after_move_returns_new_locator(
        self, resolver, base_table, asns, rng
    ):
        guid = GUID.from_name("mover")
        old, new = asns[0], asns[1]
        resolver.insert(guid, [locator(base_table, old)], old)
        resolver.update(guid, [locator(base_table, new)], new)
        result = resolver.lookup(guid, int(rng.choice(asns)))
        assert result.locators == (locator(base_table, new),)

    def test_update_reads_every_copy_version(self, resolver, base_table, asns):
        # A newer copy at the local AS alone still advances the version.
        guid = GUID.from_name("mover")
        resolver.insert(guid, [locator(base_table, asns[0])], asns[0])
        local = resolver.replica_sets[guid].local_asn
        resolver.store_at(local).insert(
            MappingEntry(guid, (locator(base_table, asns[0]),), version=6)
        )
        result = resolver.update(guid, [locator(base_table, asns[1])], asns[1])
        for asn in result.replica_set.global_asns:
            assert resolver.store_at(asn).get(guid).version == 7


class TestRecords:
    """The records every scalar call returns: immutable, and with the
    fields, in order, that callers unpack and build them by."""

    FIELDS = {
        AttemptTrace: ["asn", "hash_index", "outcome", "cost_ms"],
        LookupResult: ["entry", "rtt_ms", "served_by", "attempts", "used_local"],
        WriteResult: ["replica_set", "rtt_ms", "per_replica_rtt_ms"],
    }

    def records(self, resolver, base_table, asns):
        guid = GUID.from_name("recorded")
        write = resolver.insert(guid, [locator(base_table, asns[0])], asns[0])
        found = resolver.lookup(guid, asns[1])
        return {
            AttemptTrace: found.attempts[0],
            LookupResult: found,
            WriteResult: write,
        }

    def test_field_names_and_order(self, resolver, base_table, asns):
        for cls, record in self.records(resolver, base_table, asns).items():
            fields = self.FIELDS[cls]
            assert list(inspect.signature(cls).parameters) == fields
            values = [getattr(record, name) for name in fields]
            assert cls(*values) == record

    def test_fields_cannot_be_assigned(self, resolver, base_table, asns):
        for cls, record in self.records(resolver, base_table, asns).items():
            for name in self.FIELDS[cls]:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)

    def test_locators_are_the_entry_locators(self, resolver, base_table, asns):
        found = self.records(resolver, base_table, asns)[LookupResult]
        assert found.locators is found.entry.locators
        assert found.locators == (locator(base_table, asns[0]),)


class TestUnreachableWrite:
    """A write that cannot reach one of its replicas raises before any
    store changes: no orphaned copy at the replicas priced before it."""

    @pytest.fixture
    def split_resolver(self):
        # 1 - 2 - 3 and 4 - 5 - 6: each half unreachable from the other.
        links = [(a, b, 5.0) for a, b in ((1, 2), (2, 3), (4, 5), (5, 6))]
        topo = linked(links, range(1, 7))
        table = generate_global_prefix_table(
            topo.asns(), AllocationConfig(prefixes_per_as=3), seed=0
        )
        return DMapResolver(table, Router(topo), k=2)

    @staticmethod
    def guid_placed(resolver, first_half):
        """A GUID whose first replica is in ASs 1-3 and whose second is in
        4-6 (``first_half=True``), or whose both replicas are in 1-3."""
        for i in range(1000):
            guid = GUID.from_name(f"split-{i}")
            first, second = resolver.placer.hosting_asns(guid)
            if first <= 3 and (second > 3) == first_half:
                return guid
        raise AssertionError("no GUID with the wanted placement")

    def held_by(self, resolver, guid):
        return sorted(
            asn for asn, store in resolver.stores.items() if store.get(guid)
        )

    def test_failed_insert_writes_nothing(self, split_resolver):
        guid = self.guid_placed(split_resolver, first_half=True)
        with pytest.raises(RoutingError, match="unreachable"):
            split_resolver.insert(guid, [NetworkAddress(7)], 1)
        assert self.held_by(split_resolver, guid) == []
        assert guid not in split_resolver.replica_sets

    def test_failed_update_keeps_the_old_binding(self, split_resolver):
        guid = self.guid_placed(split_resolver, first_half=False)
        first = split_resolver.insert(guid, [NetworkAddress(7)], 1)
        before = self.held_by(split_resolver, guid)
        assert 1 in before
        # From AS 4 neither replica is reachable: the update raises, and
        # the old local copy at AS 1 is not retired.
        with pytest.raises(RoutingError, match="unreachable"):
            split_resolver.update(guid, [NetworkAddress(9)], 4)
        assert self.held_by(split_resolver, guid) == before
        for asn in before:
            assert split_resolver.store_at(asn).get(guid).version == 0
        assert split_resolver.replica_sets[guid] == first.replica_set


class TestDelete:
    def test_delete_removes_all_copies(self, resolver, base_table, asns):
        guid = GUID.from_name("gone")
        resolver.insert(guid, [locator(base_table, asns[0])], asns[0])
        removed = resolver.delete(guid)
        assert removed >= 1
        assert all(store.get(guid) is None for store in resolver.stores.values())
        assert guid not in resolver.replica_sets

    def test_delete_unknown_guid_stateless(self, resolver):
        assert resolver.delete(GUID.from_name("never")) == 0


class TestIntrospection:
    def test_storage_load_counts(self, populated):
        resolver, hosts = populated
        load = resolver.storage_load()
        assert sum(load.values()) == resolver.total_entries()
        # 30 hosts × (≤5 global + ≤1 local) copies; dedup may reduce.
        assert 30 <= resolver.total_entries() <= 30 * 6

    def test_timeout_validation(self, base_table, router):
        with pytest.raises(ConfigurationError):
            DMapResolver(base_table, router, timeout_ms=0)


class TestAdaptiveTimeout:
    """§III-D.3: ``max(floor, 2·RTT)``, for scalar and array callers."""

    def test_scalar_at_the_boundary(self):
        assert adaptive_timeout_ms(1000.0, 499.5) == 1000.0
        assert adaptive_timeout_ms(1000.0, 500.0) == 1000.0
        assert adaptive_timeout_ms(1000.0, 500.25) == 1000.5
        assert type(adaptive_timeout_ms(1000.0, 750.0)) is float

    def test_array_matches_scalar_elementwise(self):
        rtt = np.array([[0.0, 499.5, 500.0], [500.25, 750.0, np.inf]])
        out = adaptive_timeout_ms(1000.0, rtt)
        assert isinstance(out, np.ndarray) and out.shape == rtt.shape
        assert out.tolist() == [
            [1000.0, 1000.0, 1000.0],
            [1000.5, 1500.0, float("inf")],
        ]
        assert out.tolist() == [
            [adaptive_timeout_ms(1000.0, float(v)) for v in row] for row in rtt
        ]
