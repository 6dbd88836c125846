"""The scalar path reuses a GUID's stored placement only while the BGP
table is unchanged.

Writes stamp their :class:`ReplicaSet` with ``placer.generation``; a
later write or lookup of the same GUID reuses that placement while the
stamp is current and re-derives it after any announce or withdraw.  The
observable protocol (lookup walks, lazy migration pulls, store contents)
must equal that of a resolver that derives every placement afresh.
"""

import itertools
from collections import Counter

import pytest

from repro.bgp.prefix import Announcement, Prefix
from repro.core.consistency import handle_new_announcement, prepare_withdrawal
from repro.core.guid import GUID
from repro.core.resolver import OUTCOME_MISSING, DMapResolver
from repro.errors import LookupFailedError
from repro.hashing.asnum_placer import ASNumberPlacer, WeightedASPlacer
from repro.hashing.hashers import Sha256Hasher
from repro.hashing.rehash import GuidPlacer


class _FreshPlacer(GuidPlacer):
    """Algorithm 1 with a generation that never matches a stamp: every
    write and lookup derives its placement afresh."""

    def __init__(self, hash_family, table):
        super().__init__(hash_family, table)
        self._reads = itertools.count()

    @property
    def generation(self):
        return -1 - next(self._reads)


@pytest.fixture
def spy(monkeypatch):
    """Counts ``GuidPlacer.resolve_all`` calls per (placer, GUID)."""
    calls = Counter()
    original = GuidPlacer.resolve_all

    def counting(self, guid):
        calls[self, guid] += 1
        return original(self, guid)

    monkeypatch.setattr(GuidPlacer, "resolve_all", counting)
    return calls


def _pair(table, router):
    """A reusing resolver and a never-reusing twin, each over its own
    copy of ``table``."""
    reusing = DMapResolver(table.copy(), router, k=5)
    fresh_table = table.copy()
    fresh = DMapResolver(
        fresh_table, router, k=5,
        placer=_FreshPlacer(reusing.placer.hash_family, fresh_table),
    )
    return reusing, fresh


def _populate(resolvers, asns, rng, count=40):
    guids = [GUID.from_name(f"reuse-host-{i}") for i in range(count)]
    homes = [int(rng.choice(asns)) for _ in guids]
    for resolver in resolvers:
        for guid, home in zip(guids, homes):
            locator = resolver.table.representative_address(home)
            resolver.insert(guid, [locator], home)
    return guids


def _walk(result):
    return (result.served_by, result.rtt_ms, result.used_local, result.attempts)


def _stores(resolver):
    return {
        asn: sorted((e.guid.value, e.version) for e in store)
        for asn, store in resolver.stores.items()
        if len(store)
    }


class TestStamp:
    def test_placers_expose_generation(self, table, asns):
        placer = GuidPlacer(Sha256Hasher(3, address_bits=table.bits), table)
        assert placer.generation == table.generation
        table.withdraw(next(iter(table)).prefix)
        assert placer.generation == table.generation
        assert ASNumberPlacer(asns, k=3).generation == 0
        assert WeightedASPlacer({a: 1.0 for a in asns}, k=3).generation == 0

    def test_write_stamps_current_generation(self, table, router, asns, rng):
        resolver = DMapResolver(table, router, k=5)
        (guid,) = _populate([resolver], asns, rng, count=1)
        assert resolver.replica_sets[guid].generation == table.generation


class TestReuse:
    def test_one_placement_per_guid_on_unchanged_table(
        self, table, router, asns, rng, spy
    ):
        resolver = DMapResolver(table, router, k=5)
        guids = _populate([resolver], asns, rng, count=10)
        for guid in guids:
            for _ in range(3):
                resolver.lookup(guid, int(rng.choice(asns)))
            home = int(rng.choice(asns))
            resolver.update(guid, [table.representative_address(home)], home)
            resolver.lookup(guid, int(rng.choice(asns)))
        assert spy == Counter({(resolver.placer, guid): 1 for guid in guids})

    def test_unknown_guid_is_derived_every_time(self, table, router, asns, spy):
        resolver = DMapResolver(table, router, k=5)
        ghost = GUID.from_name("never-inserted")
        for _ in range(2):
            with pytest.raises(LookupFailedError):
                resolver.lookup(ghost, asns[0])
        assert spy[resolver.placer, ghost] == 2

    def test_placer_without_generation_is_never_reused(
        self, table, router, asns, rng, spy
    ):
        _reusing, fresh = _pair(table, router)
        (guid,) = _populate([fresh], asns, rng, count=1)
        fresh.lookup(guid, asns[0])
        fresh.lookup(guid, asns[1])
        assert spy[fresh.placer, guid] == 3

    def test_reused_walks_equal_fresh_walks(self, table, router, asns, rng):
        reusing, fresh = _pair(table, router)
        guids = _populate([reusing, fresh], asns, rng)
        for guid in guids:
            source = int(rng.choice(asns))
            assert _walk(reusing.lookup(guid, source)) == _walk(
                fresh.lookup(guid, source)
            )


class TestChurn:
    def test_lazy_pull_after_capturing_announcement(
        self, table, router, asns, rng, spy
    ):
        reusing, fresh = _pair(table, router)
        guids = _populate([reusing, fresh], asns, rng)
        # A /24 more-specific from another AS captures the hashed address
        # of the first GUID's first replica.
        captured = guids[0]
        old = reusing.replica_sets[captured].global_replicas[0]
        new_owner = next(a for a in asns if a != old.asn)
        prefix = Prefix(old.address & ~0xFF, 24)
        for resolver in (reusing, fresh):
            handle_new_announcement(
                resolver, Announcement(prefix, new_owner), eager=False
            )
        assert reusing.placer.resolve_one(captured, 0).asn == new_owner

        spy.clear()
        missing = 0
        for guid in guids:
            for source in (new_owner, int(rng.choice(asns))):
                got = reusing.lookup(guid, source)
                assert _walk(got) == _walk(fresh.lookup(guid, source))
                assert _stores(reusing) == _stores(fresh)
                missing += sum(a.outcome == OUTCOME_MISSING for a in got.attempts)
        # Every lookup re-derived its placement from the new table ...
        assert all(spy[reusing.placer, guid] == 2 for guid in guids)
        # ... so the captured replica was walked and pulled its copy.
        assert missing >= 1
        assert reusing.store_at(new_owner).get(captured) is not None

    def test_withdrawal_relocations_are_rederived(
        self, table, router, asns, rng, spy
    ):
        reusing, fresh = _pair(table, router)
        guids = _populate([reusing, fresh], asns, rng)
        relocated = next(
            (guid, prefix)
            for guid in guids
            for res in reusing.replica_sets[guid].global_replicas
            for prefix in reusing.table.prefixes_of(res.asn)
            if prefix.contains(res.address)
        )
        guid, prefix = relocated
        for resolver in (reusing, fresh):
            assert prepare_withdrawal(resolver, prefix) >= 1
        # The withdrawal patches the set replica by replica: no stamp.
        assert reusing.replica_sets[guid].generation is None

        spy.clear()
        for source in asns[:5]:
            assert _walk(reusing.lookup(guid, source)) == _walk(
                fresh.lookup(guid, source)
            )
        assert spy[reusing.placer, guid] == 5
        assert [r.asn for r in reusing.replica_sets[guid].global_replicas] == (
            reusing.placer.hosting_asns(guid)
        )

        # The next write re-stamps, and placement is reused again.
        home = asns[0]
        reusing.update(guid, [reusing.table.representative_address(home)], home)
        assert reusing.replica_sets[guid].generation == reusing.table.generation
        spy.clear()
        reusing.lookup(guid, asns[1])
        assert spy[reusing.placer, guid] == 0
