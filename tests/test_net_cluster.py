"""Live-cluster tests: boot, equivalence, misses, writes, metrics."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ClusterError
from repro.net.cluster import ClusterConfig, LatencyShaper, LocalCluster
from repro.net.protocol import (
    STATUS_MISS,
    LookupFrame,
    ResponseFrame,
    decode,
    encode,
)
from repro.obs.trace import OUTCOME_HIT, OUTCOME_MISSING
from repro.validation.live import run_live_check

#: One modest cluster shared by the whole module (read-mostly; the
#: write test bumps a version on one admitted GUID, which no other
#: test depends on).
CLUSTER_CONFIG = ClusterConfig(
    scale="small", seed=0, k=5, max_nodes=25, n_guids=120, n_lookups=600
)


@pytest.fixture(scope="module")
def cluster():
    return LocalCluster.build(CLUSTER_CONFIG)


class TestBuild:
    def test_node_budget_respected(self, cluster):
        assert 5 <= len(cluster.node_asns) <= CLUSTER_CONFIG.max_nodes

    def test_servable_lookups_fully_replicated(self, cluster):
        nodes = set(cluster.node_asns)
        for lookup in cluster.lookup_stream(50):
            hosting = cluster.resolver.placer.hosting_asns(lookup.guid)
            assert set(int(a) for a in hosting) <= nodes

    def test_stores_prepopulated(self, cluster):
        lookup = cluster.servable[0]
        holder = int(cluster.resolver.placer.hosting_asns(lookup.guid)[0])
        assert cluster.resolver.store_at(holder).get(lookup.guid) is not None

    def test_rejects_budget_below_k(self):
        with pytest.raises(ClusterError):
            ClusterConfig(k=5, max_nodes=3).validate()


class TestShaper:
    def test_clock_round_trip(self, cluster):
        shaper = cluster.shaper
        assert shaper.virtual_ms(shaper.wire_s(123.0)) == pytest.approx(123.0)

    def test_delay_matches_router_rtt(self, cluster):
        a, b = cluster.node_asns[0], cluster.node_asns[1]
        assert cluster.shaper.delay_s(a, b) == pytest.approx(
            cluster.shaper.wire_s(cluster.resolver.router.rtt_ms(a, b))
        )

    def test_loss_is_deterministic_and_calibrated(self, cluster):
        shaper = LatencyShaper(
            cluster.resolver.router, loss_rate=0.2, seed=5
        )
        draws = [
            shaper.should_drop(1, 2, trace_id, k)
            for trace_id in range(400)
            for k in range(5)
        ]
        again = [
            shaper.should_drop(1, 2, trace_id, k)
            for trace_id in range(400)
            for k in range(5)
        ]
        assert len(draws) >= 2_000
        assert draws == again
        rate = sum(draws) / len(draws)
        assert 0.15 < rate < 0.25

    def test_zero_loss_never_drops(self, cluster):
        assert not cluster.shaper.should_drop(1, 2, 3, 4)

    def test_invalid_config_rejected(self, cluster):
        with pytest.raises(ClusterError):
            LatencyShaper(cluster.resolver.router, time_scale=0.0)
        with pytest.raises(ClusterError):
            LatencyShaper(cluster.resolver.router, loss_rate=1.0)


class TestLiveVsAnalytic:
    def test_selftest_within_pinned_tolerance(self, cluster):
        comparison = run_live_check(queries=60, cluster=cluster)
        assert comparison.failures == 0
        assert comparison.success_rate == 1.0
        assert comparison.ok, comparison.render()
        # The wire can only be slower than the analytic ideal.
        assert comparison.median_ratio >= 0.999
        # Without loss no attempt times out, so every lookup is compared
        # with the resolver's walk, and each one matches it.
        assert comparison.compared == comparison.queries
        assert comparison.mismatches == 0

    def test_lane_compares_a_stripped_replica_before_the_pull(self, cluster):
        """The lane asks the wire before the resolver, so a replica whose
        copy is missing is a miss on both sides: the resolver's lazy pull
        restores it only after the wire has read it."""
        lookup = cluster.lookup_stream(1)[0]
        chains = [int(a) for a in cluster.resolver.placer.hosting_asns(lookup.guid)]
        ranked = cluster.resolver.selector.ranked(lookup.source_asn, chains)
        assert len(ranked) >= 2
        assert cluster.resolver.store_at(ranked[0][0]).delete(lookup.guid)
        comparison = run_live_check(queries=1, cluster=cluster)
        assert comparison.compared == 1
        assert comparison.mismatches == 0, comparison.render()
        assert cluster.resolver.store_at(ranked[0][0]).get(lookup.guid) is not None

    def test_report_is_json_ready(self, cluster):
        comparison = run_live_check(queries=10, cluster=cluster)
        payload = comparison.as_dict()
        assert payload["queries"] == 10
        assert "median_ratio" in payload and "ok" in payload
        assert payload["compared"] == 10 and payload["mismatches"] == 0
        assert "live lane" in comparison.render()


async def _boot(cluster):
    await cluster.start()
    client = cluster.client()
    await client.start()
    return client


class TestWirePaths:
    def test_non_holder_answers_miss(self, cluster):
        """A node that does not store the GUID answers "GUID missing"
        in its own name; it never relays the query."""

        async def scenario():
            await cluster.start()
            try:
                lookup = cluster.servable[0]
                hosting = {
                    int(a)
                    for a in cluster.resolver.placer.hosting_asns(lookup.guid)
                }
                non_holder = next(
                    asn for asn in cluster.node_asns if asn not in hosting
                )
                response = await _raw_lookup(cluster, lookup, non_holder)
                assert response.status == STATUS_MISS
                assert response.served_by == non_holder
                assert response.locators == ()
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_stripped_best_replica_walks_on_like_the_resolver(self, cluster):
        """With the mapping deleted from the best-ranked replica, the live
        walk records that replica's miss and is served by the
        second-ranked one, exactly as the resolver's walk is.

        The live lookup runs first: the resolver's miss triggers the
        §III-D.1 lazy pull, which restores the stripped copy."""
        resolver = cluster.resolver
        picked = []
        seen = set()
        for lookup in cluster.servable:
            chains = [int(a) for a in resolver.placer.hosting_asns(lookup.guid)]
            ranked = resolver.selector.ranked(lookup.source_asn, chains)
            if lookup.guid in seen or len(ranked) < 2:
                continue
            seen.add(lookup.guid)
            picked.append((lookup, ranked[0][0], ranked[1][0]))
            if len(picked) == 5:
                break
        assert len(picked) == 5

        async def scenario():
            client = await _boot(cluster)
            rows = []
            try:
                for lookup, best, runner_up in picked:
                    assert resolver.store_at(best).delete(lookup.guid)
                    live = await client.lookup(lookup.guid, lookup.source_asn)
                    want = resolver.lookup(lookup.guid, lookup.source_asn)
                    rows.append((lookup, best, runner_up, live, want))
            finally:
                client.close()
                await cluster.stop()
            return rows

        for lookup, best, runner_up, live, want in asyncio.run(scenario()):
            walk = [(a.asn, a.outcome) for a in live.attempts]
            assert walk == [(best, OUTCOME_MISSING), (runner_up, OUTCOME_HIT)]
            assert walk == [(a.asn, a.outcome) for a in want.attempts]
            assert live.served_by == want.served_by == runner_up
            assert resolver.store_at(best).get(lookup.guid) is not None

    def test_live_write_then_read(self, cluster):
        """An update written over the wire is visible to wire lookups."""

        async def scenario():
            client = await _boot(cluster)
            try:
                lookup = cluster.servable[0]
                new_locator = 0xC0FFEE
                write = await client.update(
                    lookup.guid, [new_locator], lookup.source_asn, version=7
                )
                assert write.rtt_ms > 0.0
                assert len(write.per_replica_rtt_ms) == len(write.replicas)

                result = await client.lookup(lookup.guid, lookup.source_asn)
                assert result.version == 7
                assert new_locator in result.locators
                # Shared stores: the analytic resolver sees the wire write.
                holder = int(
                    cluster.resolver.placer.hosting_asns(lookup.guid)[0]
                )
                entry = cluster.resolver.store_at(holder).get(lookup.guid)
                assert entry is not None and entry.version == 7
            finally:
                client.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_malformed_datagram_counted(self, cluster):
        async def scenario():
            await cluster.start()
            try:
                loop = asyncio.get_running_loop()
                transport, _ = await loop.create_datagram_endpoint(
                    asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0)
                )
                target = cluster.peers[cluster.node_asns[0]]
                before = cluster.registry.counter("net.node.malformed").total()
                transport.sendto(b"garbage", target)
                await asyncio.sleep(0.05)
                transport.close()
                assert (
                    cluster.registry.counter("net.node.malformed").total()
                    == before + 1
                )
            finally:
                await cluster.stop()

        asyncio.run(scenario())


async def _raw_lookup(cluster, lookup, target_asn):
    """Send one hand-built LOOKUP frame and await its response."""
    loop = asyncio.get_running_loop()
    future = loop.create_future()

    class _Probe(asyncio.DatagramProtocol):
        def datagram_received(self, data, addr):
            if not future.done():
                future.set_result(decode(data))

    transport, _ = await loop.create_datagram_endpoint(
        _Probe, local_addr=("127.0.0.1", 0)
    )
    try:
        frame = LookupFrame(
            trace_id=424242,
            guid_value=lookup.guid.value,
            source_asn=lookup.source_asn,
            k_index=0,
        )
        transport.sendto(encode(frame), cluster.peers[target_asn])
        response = await asyncio.wait_for(future, timeout=5.0)
    finally:
        transport.close()
    assert isinstance(response, ResponseFrame)
    return response


class TestSharedRegistry:
    def test_cluster_counters_populated(self, cluster):
        # Earlier tests drove traffic through the module cluster.
        report = cluster.registry.report()
        assert report["net.node.frames_rx"]["kind"] == "counter"
        assert cluster.registry.counter("net.node.lookups_served").total() > 0
