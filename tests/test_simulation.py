"""Tests for the end-to-end discrete-event simulation.

The key property: the DES and the instant-mode resolver implement the same
protocol, so on failure-free workloads their response times must agree to
floating-point precision.
"""

import numpy as np
import pytest

from repro.core.guid import GUID
from repro.core.resolver import DMapResolver
from repro.sim.failures import ChurnFailureModel
from repro.sim.simulation import DMapSimulation

from .failure_models import RouterFailureModel


def build_sim(topology, table, router, **kwargs):
    defaults = dict(k=5, router=router)
    defaults.update(kwargs)
    return DMapSimulation(topology, table, **defaults)


@pytest.fixture
def hosts(base_table, asns, rng):
    """40 (guid, home, querier) triples."""
    out = []
    for i in range(40):
        out.append(
            (
                GUID.from_name(f"sim-host-{i}"),
                int(rng.choice(asns)),
                int(rng.choice(asns)),
            )
        )
    return out


def schedule_workload(sim, table, hosts):
    for guid, home, querier in hosts:
        locator = table.representative_address(home)
        sim.schedule_insert(guid, [locator], home, at=0.0)
        sim.schedule_lookup(guid, querier, at=60_000.0)


class TestBasicOperation:
    def test_all_queries_answered(self, topology, base_table, router, hosts):
        sim = build_sim(topology, base_table, router)
        schedule_workload(sim, base_table, hosts)
        sim.run()
        assert len(sim.metrics.records) == len(hosts)
        assert not sim.metrics.failed

    def test_insert_latency_is_parallel_max(
        self, topology, base_table, router, hosts
    ):
        sim = build_sim(topology, base_table, router)
        resolver = DMapResolver(base_table, router, k=5)
        schedule_workload(sim, base_table, hosts)
        sim.run()
        assert len(sim.insert_records) == len(hosts)
        by_guid = {r.guid_value: r for r in sim.insert_records}
        for guid, home, _querier in hosts:
            expected = resolver.insert(
                guid, [base_table.representative_address(home)], home
            ).rtt_ms
            assert by_guid[guid.value].rtt_ms == pytest.approx(expected)

    def test_lookup_rtts_match_instant_resolver(
        self, topology, base_table, router, hosts
    ):
        sim = build_sim(topology, base_table, router)
        schedule_workload(sim, base_table, hosts)
        sim.run()
        resolver = DMapResolver(base_table, router, k=5)
        for guid, home, _querier in hosts:
            resolver.insert(guid, [base_table.representative_address(home)], home)
        by_guid = {r.guid_value: r for r in sim.metrics.records}
        for guid, _home, querier in hosts:
            expected = resolver.lookup(guid, querier).rtt_ms
            assert by_guid[guid.value].rtt_ms == pytest.approx(expected, abs=1e-6)

    def test_storage_load_matches_resolver(
        self, topology, base_table, router, hosts
    ):
        sim = build_sim(topology, base_table, router)
        resolver = DMapResolver(base_table, router, k=5)
        schedule_workload(sim, base_table, hosts)
        sim.run()
        for guid, home, _querier in hosts:
            resolver.insert(guid, [base_table.representative_address(home)], home)
        assert sim.storage_load() == resolver.storage_load()

    def test_traffic_counted(self, topology, base_table, router, hosts):
        sim = build_sim(topology, base_table, router)
        schedule_workload(sim, base_table, hosts)
        sim.run()
        assert sim.update_traffic_bits() > 0


class TestUpdates:
    def test_update_version_wins(self, topology, base_table, router, asns, rng):
        sim = build_sim(topology, base_table, router)
        guid = GUID.from_name("mover")
        home_a, home_b = int(rng.choice(asns)), int(rng.choice(asns))
        loc_a = base_table.representative_address(home_a)
        loc_b = base_table.representative_address(home_b)
        sim.schedule_insert(guid, [loc_a], home_a, at=0.0)
        sim.schedule_update(guid, [loc_b], home_b, at=50_000.0)
        sim.schedule_lookup(guid, int(rng.choice(asns)), at=100_000.0)
        sim.run()
        assert len(sim.metrics.records) == 1
        # Find the entry the query returned through any replica store.
        for node in sim.nodes.values():
            entry = node.store.get(guid)
            if entry is not None:
                assert entry.locators == (loc_b,)


class TestChurnFailures:
    def test_churn_increases_tail(self, topology, base_table, router, hosts):
        clean = build_sim(topology, base_table, router)
        schedule_workload(clean, base_table, hosts)
        clean.run()

        churned = build_sim(
            topology,
            base_table,
            router,
            failure_model=ChurnFailureModel(0.3, seed=5),
        )
        schedule_workload(churned, base_table, hosts)
        churned.run()

        assert churned.metrics.mean_attempts() > clean.metrics.mean_attempts()
        assert churned.metrics.rtts().mean() > clean.metrics.rtts().mean()

    def test_down_replicas_cause_timeouts_not_failures(
        self, topology, base_table, router, hosts, rng
    ):
        # Take one host, kill its best replica, verify the query still
        # resolves after one timeout.
        probe_sim = build_sim(topology, base_table, router)
        chosen = None
        for guid, home, querier in hosts:
            best = probe_sim.selector.order_candidates(
                querier, probe_sim.placer.hosting_asns(guid)
            )[0]
            if best != querier and best != home and querier != home:
                chosen = (guid, home, querier, best)
                break
        assert chosen is not None, "no host with a distinct best replica"
        guid, home, querier, best = chosen

        sim = build_sim(
            topology,
            base_table,
            router,
            failure_model=RouterFailureModel([best]),
            timeout_ms=500.0,
        )
        locator = base_table.representative_address(home)
        sim.schedule_insert(guid, [locator], home, at=0.0)
        sim.schedule_lookup(guid, querier, at=60_000.0)
        sim.run()
        assert len(sim.metrics.records) == 1
        record = sim.metrics.records[0]
        assert record.success
        assert record.rtt_ms > 500.0  # paid the timeout
        assert record.attempts >= 2

    def test_local_replica_rescues_total_global_failure(
        self, topology, base_table, router, hosts
    ):
        guid, home, _querier = hosts[0]
        probe_sim = build_sim(topology, base_table, router)
        replicas = set(probe_sim.placer.hosting_asns(guid))
        if home in replicas:
            pytest.skip("home is a global replica for this seed")
        sim = build_sim(
            topology,
            base_table,
            router,
            failure_model=RouterFailureModel(replicas),
            timeout_ms=500.0,
        )
        locator = base_table.representative_address(home)
        sim.schedule_insert(guid, [locator], home, at=0.0)
        sim.schedule_lookup(guid, home, at=60_000.0)  # query from home AS
        sim.run()
        # The insert acks never arrive (replicas down), but the local copy
        # serves the lookup.
        assert len(sim.metrics.records) == 1
        assert sim.metrics.records[0].used_local


class TestDeterminism:
    def test_identical_runs(self, topology, base_table, router, hosts):
        results = []
        for _ in range(2):
            sim = build_sim(topology, base_table, router)
            schedule_workload(sim, base_table, hosts)
            sim.run()
            results.append([r.rtt_ms for r in sim.metrics.records])
        assert results[0] == results[1]
