"""Tests for the DMapNetwork façade."""

import numpy as np
import pytest

from repro import DMapNetwork
from repro.bgp.allocation import AllocationConfig, generate_global_prefix_table
from repro.core.guid import GUID
from repro.errors import ConfigurationError, DMapError, LookupFailedError
from repro.experiments.common import Environment, Scale
from repro.topology.generator import generate_internet_topology, small_scale_config
from repro.topology.graph import ASTopology


def build_network(n_as, seed, **resolver_kwargs):
    """DMap (K = 5) deployed on a generated ``n_as``-AS Internet."""
    topology = generate_internet_topology(small_scale_config(n_as=n_as), seed=seed)
    table = generate_global_prefix_table(
        topology.asns(), AllocationConfig(prefixes_per_as=6.0), seed=seed + 1
    )
    return DMapNetwork(topology, table, k=5, seed=seed, **resolver_kwargs)


@pytest.fixture(scope="module")
def network():
    return build_network(n_as=120, seed=3)


class TestRegistration:
    def test_register_and_lookup_by_name(self, network):
        guid = network.register_host("test-phone")
        result = network.lookup("test-phone")
        assert result.entry.guid == guid
        assert result.rtt_ms > 0

    def test_register_at_specific_as(self, network):
        asn = network.topology.asns()[5]
        network.register_host("pinned-host", asn=asn)
        assert network.host_location("pinned-host") == asn

    def test_double_registration_rejected(self, network):
        network.register_host("dup-host")
        with pytest.raises(ConfigurationError):
            network.register_host("dup-host")

    def test_register_by_guid(self, network):
        guid = GUID.from_name("raw-guid-host")
        assert network.register_host(guid) == guid
        assert network.lookup(guid).entry.guid == guid

    def test_unknown_host_errors(self, network):
        with pytest.raises(DMapError):
            network.host_location("nobody")
        with pytest.raises(LookupFailedError):
            network.lookup("never-registered-name")


class TestMobility:
    def test_move_updates_binding(self, network):
        network.register_host("mover-1")
        before = network.host_location("mover-1")
        network.move_host("mover-1")
        after = network.host_location("mover-1")
        assert after != before or after in network.topology.neighbors(before)
        result = network.lookup("mover-1")
        expected = network.table.representative_address(after)
        assert result.locators == (expected,)

    def test_move_to_specific_as(self, network):
        network.register_host("mover-2")
        target = network.topology.asns()[-1]
        network.move_host("mover-2", to_asn=target)
        assert network.host_location("mover-2") == target

    def test_moves_counted(self, network):
        network.register_host("mover-3")
        for _ in range(3):
            network.move_host("mover-3")
        record = network._record("mover-3")
        assert record.moves == 3

    def test_default_move_independent_of_topology_cache(self, tmp_path):
        # The first Environment generates the substrate and stores it; the
        # second loads it.  The store keeps neighbour order, so a third
        # topology reverses every neighbour list on purpose.
        scale = Scale("unit", 80, 100, 500, 4.0, 80_000)
        fresh = Environment(scale, seed=4, cache_dir=str(tmp_path))
        loaded = Environment(scale, seed=4, cache_dir=str(tmp_path))
        assert loaded.substrate_loaded
        arrays = fresh.topology.adjacency_arrays()
        bounds = arrays["adj_start"].tolist()
        for key in ("adj_asn", "adj_latency_ms"):
            arrays[key] = np.concatenate(
                [arrays[key][lo:hi][::-1] for lo, hi in zip(bounds[:-1], bounds[1:])]
            )
        reordered = ASTopology(arrays)
        asns = fresh.topology.asns()
        assert any(
            fresh.topology.neighbors(a) != reordered.neighbors(a)
            for a in asns
        )

        def moves(topology, table):
            net = DMapNetwork(topology, table, k=3, seed=9)
            hosts = [net.register_host(f"walker-{i}", asn=asns[i]) for i in range(5)]
            path = []
            for _ in range(6):
                for host in hosts:
                    net.move_host(host)
                    path.append(net.host_location(host))
            return path

        expected = moves(fresh.topology, fresh.table)
        assert moves(loaded.topology, loaded.table) == expected
        assert moves(reordered, fresh.table) == expected

    def test_clock_stamps_writes(self, network):
        network.register_host("timed-host")
        network.advance_time(5000.0)
        network.move_host("timed-host")
        assert network.lookup("timed-host").entry.timestamp == network.clock_ms
        with pytest.raises(ConfigurationError):
            network.advance_time(-1.0)


class TestDeregistration:
    def test_deregister_removes_everything(self, network):
        network.register_host("goner")
        removed = network.deregister_host("goner")
        assert removed >= 1
        with pytest.raises(DMapError):
            network.host_location("goner")
        with pytest.raises(LookupFailedError):
            network.lookup("goner")


class TestStats:
    def test_random_asn_is_valid(self, network):
        for _ in range(20):
            assert network.random_asn() in network.topology.asns()


class TestTracing:
    def test_register_move_lookup_trace_round_trip(self):
        from repro.obs import CollectingTracer

        tracer = CollectingTracer()
        net = build_network(n_as=80, seed=17, tracer=tracer)
        guid = net.register_host("roamer")
        before = len(tracer.traces)

        first = net.lookup("roamer")
        net.move_host("roamer")
        after_move = net.host_location("roamer")
        second = net.lookup("roamer")

        # Only the two lookups trace; writes are not lookups.
        traces = tracer.traces[before:]
        assert len(traces) == 2
        for t, result in zip(traces, (first, second)):
            assert t.guid_value == int(guid)
            assert t.success
            assert t.k == 5
            assert t.rtt_ms == result.rtt_ms
            assert len(t.placement) == 5
            assert t.served_by == (
                t.source_asn if t.used_local else t.attempts[-1].asn
            )

        # The post-move trace still resolves through the same replica
        # chains (placement is a pure function of the GUID), and the
        # returned locator is the new attachment's address.
        assert traces[0].replica_set == traces[1].replica_set
        expected = net.table.representative_address(after_move)
        assert second.locators == (expected,)
