"""Live-cluster tests: boot, equivalence, forwarding, writes, metrics."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ClusterError
from repro.net.cluster import ClusterConfig, LatencyShaper, LocalCluster
from repro.net.protocol import (
    FLAG_FORWARDED,
    STATUS_MISS,
    STATUS_OK,
    LookupFrame,
    ResponseFrame,
    decode,
    encode,
)
from repro.obs.counters import MetricsRegistry
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
            shaper.should_drop(1, 2, trace_id, k, attempt)
            for trace_id in range(200)
            for k in range(5)
            for attempt in range(2)
        ]
        again = [
            shaper.should_drop(1, 2, trace_id, k, attempt)
            for trace_id in range(200)
            for k in range(5)
            for attempt in range(2)
        ]
        assert draws == again
        rate = sum(draws) / len(draws)
        assert 0.15 < rate < 0.25

    def test_zero_loss_never_drops(self, cluster):
        assert not cluster.shaper.should_drop(1, 2, 3, 4, 5)

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
    def test_deputy_forwarding(self, cluster):
        """Algorithm 1: a non-holder with hop budget relays the answer."""

        async def scenario():
            client = await _boot(cluster)
            try:
                lookup = cluster.servable[0]
                hosting = {
                    int(a)
                    for a in cluster.resolver.placer.hosting_asns(lookup.guid)
                }
                non_holder = next(
                    asn for asn in cluster.node_asns if asn not in hosting
                )
                response = await _raw_lookup(
                    cluster, lookup, non_holder, hop_budget=1
                )
                assert response.status == STATUS_OK
                assert response.flags & FLAG_FORWARDED
                assert response.served_by in hosting

                # With the budget exhausted, the same node answers MISS.
                response = await _raw_lookup(
                    cluster, lookup, non_holder, hop_budget=0
                )
                assert response.status == STATUS_MISS
                assert response.served_by == non_holder
            finally:
                client.close()
                await cluster.stop()

        asyncio.run(scenario())

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


async def _raw_lookup(cluster, lookup, target_asn, hop_budget):
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
            hop_budget=hop_budget,
        )
        transport.sendto(encode(frame), cluster.peers[target_asn])
        response = await asyncio.wait_for(future, timeout=5.0)
    finally:
        transport.close()
    assert isinstance(response, ResponseFrame)
    return response


class TestSharedRegistry:
    def test_facade_and_wire_metrics_share_one_registry(self, topology, base_table):
        """The satellite fix: DMapNetwork.stats() publishes through the
        same registry family the wire servers count into."""
        from repro.service import DMapNetwork

        shared = MetricsRegistry()
        net = DMapNetwork(topology, base_table.copy(), k=3, seed=1, registry=shared)
        net.register_host("alice")
        stats = net.stats()
        assert stats["n_hosts"] == 1.0
        assert shared.gauge("service.n_hosts").value() == 1.0

        cluster = LocalCluster.build(CLUSTER_CONFIG, registry=shared)
        comparison = run_live_check(queries=5, cluster=cluster)
        assert comparison.successes == 5
        report = shared.report()
        assert "service.n_hosts" in report
        assert "net.node.lookups_served" in report
        assert "net.client.rtt_ms" in report

    def test_cluster_counters_populated(self, cluster):
        # Earlier tests drove traffic through the module cluster.
        report = cluster.registry.report()
        assert report["net.node.frames_rx"]["kind"] == "counter"
        assert cluster.registry.counter("net.node.lookups_served").total() > 0
