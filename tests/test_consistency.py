"""Tests for the §III-D consistency protocols (churn, migration, staleness)."""

import pytest

from repro.bgp.prefix import Announcement
from repro.core.consistency import (
    audit_placement,
    handle_new_announcement,
    is_stale,
    prepare_withdrawal,
    repair_mapping,
)
from repro.core.guid import GUID
from repro.core.mapping import MappingEntry
from repro.core.resolver import DMapResolver
from repro.errors import PrefixTableError


@pytest.fixture
def fresh_resolver(table, router):
    """Resolver over a private table copy (churn tests mutate it)."""
    return DMapResolver(table, router, k=5)


def populate(resolver, table, asns, rng, count=60):
    guids = []
    for i in range(count):
        guid = GUID.from_name(f"churn-host-{i}")
        home = int(rng.choice(asns))
        resolver.insert(guid, [table.representative_address(home)], home)
        guids.append(guid)
    return guids


def find_withdrawable(resolver):
    """A (prefix, guid) pair where a replica actually lives under the
    prefix, so withdrawing it must migrate something."""
    for guid, replica_set in resolver.replica_sets.items():
        for res in replica_set.global_replicas:
            for prefix in resolver.table.prefixes_of(res.asn):
                if prefix.contains(res.address):
                    return prefix, guid
    raise AssertionError("populate() placed no replica in announced space?")


class TestWithdrawal:
    def test_migrates_affected_replicas(self, fresh_resolver, table, asns, rng):
        populate(fresh_resolver, table, asns, rng)
        prefix, _guid = find_withdrawable(fresh_resolver)
        migrated = prepare_withdrawal(fresh_resolver, prefix)
        assert migrated >= 1
        audit = audit_placement(fresh_resolver)
        assert audit["missing"] == 0
        assert audit["mislocated"] == 0

    def test_lookups_survive_withdrawal(self, fresh_resolver, table, asns, rng):
        guids = populate(fresh_resolver, table, asns, rng)
        prefix, _ = find_withdrawable(fresh_resolver)
        prepare_withdrawal(fresh_resolver, prefix)
        for guid in guids[:20]:
            result = fresh_resolver.lookup(guid, int(rng.choice(asns)))
            assert result.entry.guid == guid

    def test_unannounced_prefix_rejected(self, fresh_resolver, table, asns, rng):
        populate(fresh_resolver, table, asns, rng, count=5)
        prefix, _ = find_withdrawable(fresh_resolver)
        prepare_withdrawal(fresh_resolver, prefix)
        with pytest.raises(PrefixTableError):
            prepare_withdrawal(fresh_resolver, prefix)


class TestAnnouncement:
    def test_reannounce_with_eager_repair_restores_placement(
        self, fresh_resolver, table, asns, rng
    ):
        populate(fresh_resolver, table, asns, rng)
        prefix, _ = find_withdrawable(fresh_resolver)
        original_asn = table.resolve(prefix.base).asn
        prepare_withdrawal(fresh_resolver, prefix)
        migrated = handle_new_announcement(
            fresh_resolver, Announcement(prefix, original_asn), eager=True
        )
        assert migrated >= 1
        audit = audit_placement(fresh_resolver)
        assert audit["missing"] == 0
        assert audit["mislocated"] == 0

    def test_lazy_announcement_leaves_mislocated_until_repaired(
        self, fresh_resolver, table, asns, rng
    ):
        populate(fresh_resolver, table, asns, rng)
        prefix, _ = find_withdrawable(fresh_resolver)
        original_asn = table.resolve(prefix.base).asn
        prepare_withdrawal(fresh_resolver, prefix)
        handle_new_announcement(
            fresh_resolver, Announcement(prefix, original_asn), eager=False
        )
        audit = audit_placement(fresh_resolver)
        assert audit["mislocated"] >= 1
        # Per-GUID lazy repair (first-miss migration) fixes each one.
        for guid in list(fresh_resolver.replica_sets):
            repair_mapping(fresh_resolver, guid)
        audit = audit_placement(fresh_resolver)
        assert audit["mislocated"] == 0
        assert audit["missing"] == 0

    def test_repair_preserves_freshest_version(
        self, fresh_resolver, table, asns, rng
    ):
        populate(fresh_resolver, table, asns, rng)
        prefix, guid = find_withdrawable(fresh_resolver)
        # Bump the version via an update before churn.
        home = fresh_resolver.replica_sets[guid].local_asn
        fresh_resolver.update(guid, [table.representative_address(home)], home)
        prepare_withdrawal(fresh_resolver, prefix)
        for asn in fresh_resolver.replica_sets[guid].all_asns:
            entry = fresh_resolver.store_at(asn).get(guid)
            assert entry is not None
            assert entry.version == 1

    def test_repair_unknown_guid_is_noop(self, fresh_resolver):
        assert repair_mapping(fresh_resolver, GUID.from_name("ghost")) == 0


class TestStaleness:
    def test_is_stale(self):
        from repro.core.guid import NetworkAddress

        entry = MappingEntry(GUID(1), (NetworkAddress(5),), version=2)
        assert is_stale(entry, observed_version=3)
        assert not is_stale(entry, observed_version=2)
        assert not is_stale(entry, observed_version=1)


class TestAudit:
    def test_clean_state_audits_clean(self, fresh_resolver, table, asns, rng):
        populate(fresh_resolver, table, asns, rng, count=10)
        audit = audit_placement(fresh_resolver)
        assert audit["missing"] == 0
        assert audit["mislocated"] == 0
        assert audit["ok"] == 10 * 5


class TestMinimalDisruption:
    """Consistent-hashing property: withdrawing a prefix only moves the
    replicas whose hash chain actually visits that prefix — every other
    placement in the system is untouched (the property that makes DMap's
    churn cost proportional to the churned space, not the system size)."""

    def test_unrelated_placements_unchanged(self, table, router, asns, rng):
        resolver = DMapResolver(table, router, k=5)
        guids = populate(resolver, table, asns, rng, count=80)
        before = {g: resolver.placer.hosting_asns(g) for g in guids}

        prefix, _ = find_withdrawable(resolver)
        # Which (guid, replica) chains visit the withdrawn prefix?  A chain
        # "visits" it if any of its hash/rehash values lands inside.
        affected = set()
        for g in guids:
            for idx in range(5):
                value = resolver.placer.hash_family.hash_one(g, idx)
                for _attempt in range(resolver.placer.max_rehashes):
                    if prefix.contains(value):
                        affected.add((g, idx))
                        break
                    if table.resolve(value) is not None:
                        break
                    value = resolver.placer.hash_family.rehash(value, idx)

        prepare_withdrawal(resolver, prefix)
        after = {g: resolver.placer.hosting_asns(g) for g in guids}
        for g in guids:
            for idx in range(5):
                if (g, idx) not in affected:
                    assert before[g][idx] == after[g][idx], (
                        f"replica {idx} of {g} moved although its chain "
                        f"never touched {prefix}"
                    )
        # And at least the directly-hosted ones did move.
        assert any(before[g] != after[g] for g, _ in affected) or not affected
