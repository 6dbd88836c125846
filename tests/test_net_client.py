"""Client fault paths: loss, dead replicas, exhaustion."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.resolver import adaptive_timeout_ms
from repro.errors import LookupFailedError, WriteFailedError
from repro.net.cluster import ClusterConfig, LocalCluster
from repro.obs.trace import (
    FAILURE_EXHAUSTED,
    OUTCOME_HIT,
    OUTCOME_TIMEOUT,
    CollectingTracer,
)
from repro.topology.routing import Router

#: Short adaptive-timeout floor (virtual ms) so fault scenarios that
#: walk past dead or lossy replicas finish in tens of wall milliseconds.
TIMEOUT_FLOOR_MS = 150.0

#: High enough that the seeded run holds lookups served after timeouts
#: and lookups that lose every replica's reply.  should_drop is a pure
#: seeded hash, so both outcomes are pinned, not probabilistic.
LOSS_RATE = 0.6
LOSSY_LOOKUPS = 30


def _config(**overrides):
    base = dict(
        scale="small",
        seed=0,
        k=5,
        max_nodes=25,
        n_guids=100,
        n_lookups=400,
        timeout_floor_ms=TIMEOUT_FLOOR_MS,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def _hosting(cluster, guid):
    return [int(a) for a in cluster.resolver.placer.hosting_asns(guid)]


def _predicted_walk(cluster, lookup, trace_id):
    """The replicas the best-first walk asks and the one that serves
    (``None`` when every reply is dropped), from the seeded drops."""
    chains = _hosting(cluster, lookup.guid)
    asked = []
    for asn, _ in cluster.resolver.selector.ranked(lookup.source_asn, chains):
        asked.append(asn)
        if not cluster.shaper.should_drop(
            lookup.source_asn, asn, trace_id, chains.index(asn)
        ):
            return asked, asn
    return asked, None


@pytest.fixture(scope="module")
def lossy_run():
    """30 traced lookups at 60% loss: ``(cluster, rows, traces)`` with a
    ``(asked, served_by, result or error, trace_id)`` row per lookup."""
    cluster = LocalCluster.build(_config(loss_rate=LOSS_RATE))
    tracer = CollectingTracer()

    async def scenario():
        await cluster.start()
        client = cluster.client(tracer=tracer)
        await client.start()
        rows = []
        try:
            for i, lookup in enumerate(cluster.lookup_stream(LOSSY_LOOKUPS)):
                # The client numbers its exchanges from 1 under the seed.
                trace_id = (cluster.shaper.seed << 32) | (i + 1)
                asked, served_by = _predicted_walk(cluster, lookup, trace_id)
                try:
                    got = await client.lookup(lookup.guid, lookup.source_asn)
                except LookupFailedError as exc:
                    got = exc
                rows.append((asked, served_by, got, trace_id))
            return rows
        finally:
            client.close()
            await cluster.stop()

    return cluster, asyncio.run(scenario()), tracer.traces


class TestAttemptSchedule:
    def test_adaptive_timeout_is_max_of_floor_and_twice_rtt(self):
        """Each replica the client would ask waits ``max(floor, 2 × RTT)``
        (virtual ms), RTT being the routed round trip to that replica;
        across the run the floor wins for near replicas and twice the
        RTT for far ones."""
        cluster = LocalCluster.build(_config())
        client = cluster.client()
        floor_won = rtt_won = 0
        for lookup in cluster.servable[:50]:
            chains = _hosting(cluster, lookup.guid)
            ranked = cluster.resolver.selector.ranked(lookup.source_asn, chains)
            walk = list(client._ranked(lookup.source_asn, chains))
            assert [asn for asn, _, _ in walk] == [asn for asn, _ in ranked]
            for (asn, k_index, timeout_ms), (_, one_way) in zip(walk, ranked):
                assert k_index == chains.index(asn)
                rtt_ms = 2.0 * Router.reached(lookup.source_asn, asn, one_way)
                assert timeout_ms == max(TIMEOUT_FLOOR_MS, 2.0 * rtt_ms)
                if 2.0 * rtt_ms <= TIMEOUT_FLOOR_MS:
                    floor_won += 1
                else:
                    rtt_won += 1
        assert floor_won > 0 and rtt_won > 0


class TestInjectedLoss:
    def test_lookups_survive_packet_loss_via_retry(self, lossy_run):
        """Each lookup is served by the first replica whose reply
        survives, after one timeout per replica before it; it fails
        exactly when no reply survives."""
        cluster, rows, _ = lossy_run
        assert len(rows) == LOSSY_LOOKUPS
        for asked, served_by, got, trace_id in rows:
            if served_by is None:
                assert isinstance(got, LookupFailedError)
                continue
            assert got.trace_id == trace_id
            assert got.served_by == served_by
            assert [a.asn for a in got.attempts] == asked
            assert [a.outcome for a in got.attempts] == (
                [OUTCOME_TIMEOUT] * (len(asked) - 1) + [OUTCOME_HIT]
            )
        # The pinned run holds both branches of the walk and a failure.
        assert any(s is not None and len(a) > 1 for a, s, _, _ in rows)
        assert any(s is None for _, s, _, _ in rows)
        timeouts = sum(len(a) - (s is not None) for a, s, _, _ in rows)
        assert (
            cluster.registry.counter("net.client.attempt_timeouts").total()
            == timeouts
        )
        assert cluster.registry.counter("net.node.shaped_drops").total() == timeouts

    def test_timeout_attempts_land_in_traces(self, lossy_run):
        _, rows, traces = lossy_run
        assert len(traces) == LOSSY_LOOKUPS
        for (asked, served_by, _, _), trace in zip(rows, traces):
            assert [a.asn for a in trace.attempts] == asked
            assert trace.served_by == served_by
            assert trace.success == (served_by is not None)
            if served_by is None:
                assert trace.failure_cause == FAILURE_EXHAUSTED
                assert {a.outcome for a in trace.attempts} == {OUTCOME_TIMEOUT}


class TestDeadReplicas:
    def test_one_dead_replica_of_k_still_succeeds(self):
        """The best replica is dead: one adaptive timeout of
        ``max(floor, 2 × RTT)``, then the second-ranked replica serves.
        The RTT to this lookup's best replica is ≈ 43 ms, so the 150 ms
        floor wins and a 50 ms floor loses to twice the RTT."""
        for floor, floor_wins in ((TIMEOUT_FLOOR_MS, True), (50.0, False)):
            cluster = LocalCluster.build(_config(timeout_floor_ms=floor))
            lookup = cluster.servable[0]
            ranked = cluster.resolver.selector.ranked(
                lookup.source_asn, _hosting(cluster, lookup.guid)
            )
            assert len(ranked) >= 2
            (victim, one_way), (runner_up, _) = ranked[0], ranked[1]
            rtt_ms = 2.0 * one_way
            tracer = CollectingTracer()

            async def scenario():
                await cluster.start()
                client = cluster.client(tracer=tracer)
                await client.start()
                try:
                    cluster.kill_node(victim)
                    return await client.lookup(lookup.guid, lookup.source_asn)
                finally:
                    client.close()
                    await cluster.stop()

            result = asyncio.run(scenario())
            assert result.served_by == runner_up
            timeout_ms = adaptive_timeout_ms(floor, rtt_ms)
            assert (timeout_ms == floor) == floor_wins
            for attempts in (result.attempts, tracer.traces[0].attempts):
                assert [(a.asn, a.outcome) for a in attempts] == [
                    (victim, OUTCOME_TIMEOUT),
                    (runner_up, OUTCOME_HIT),
                ]
                assert attempts[0].cost_ms == timeout_ms
            assert result.rtt_ms >= timeout_ms

    def test_all_replicas_dead_exhausts_with_error(self):
        cluster = LocalCluster.build(_config())
        lookup = cluster.servable[0]
        replicas = sorted(set(_hosting(cluster, lookup.guid)))

        async def scenario():
            await cluster.start()
            client = cluster.client()
            await client.start()
            try:
                for asn in replicas:
                    cluster.kill_node(asn)
                with pytest.raises(LookupFailedError):
                    await client.lookup(lookup.guid, lookup.source_asn)
            finally:
                client.close()
                await cluster.stop()

        asyncio.run(scenario())
        # The walk asked every replica once and each one timed out.
        assert (
            cluster.registry.counter("net.client.lookup_failures").total() == 1
        )
        assert cluster.registry.counter(
            "net.client.attempt_timeouts"
        ).total() == len(replicas)

    def test_write_to_dead_replica_fails_loudly(self):
        cluster = LocalCluster.build(_config())

        async def scenario():
            await cluster.start()
            client = cluster.client()
            await client.start()
            try:
                lookup = cluster.servable[0]
                cluster.kill_node(_hosting(cluster, lookup.guid)[0])
                with pytest.raises(WriteFailedError):
                    await client.update(
                        lookup.guid, [1], lookup.source_asn, version=2
                    )
            finally:
                client.close()
                await cluster.stop()

        asyncio.run(scenario())
        assert (
            cluster.registry.counter("net.client.write_failures").total() == 1
        )
        assert cluster.registry.counter("net.client.write_timeouts").total() == 1
