"""Tests for the message network and AS nodes of the simulation."""

import pytest

from repro.core.guid import GUID, NetworkAddress
from repro.core.mapping import MappingEntry
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.failures import FailureModel
from repro.sim.network import Message, MessageKind, Network
from repro.sim.node import ASNode
from .failure_models import RouterFailureModel
from .topology_fixtures import line_fixture
from repro.topology.routing import Router


@pytest.fixture
def stack():
    """(simulator, network, router) over a 4-AS line, plus a node per AS."""
    topology = line_fixture(n=4, link_ms=10.0, intra_ms=1.0)
    router = Router(topology)
    simulator = Simulator()
    network = Network(simulator, router)
    nodes = {
        asn: ASNode(asn, network, FailureModel())
        for asn in topology.asns()
    }
    return simulator, network, router, nodes


def entry(value=1, locator=5, version=0):
    return MappingEntry(GUID(value), (NetworkAddress(locator),), version)


class TestNetwork:
    def test_delivery_delay_is_one_way_latency(self, stack):
        simulator, network, router, nodes = stack
        seen = []
        nodes[3].response_sink = seen.append
        # Send a response-kind message 1 -> 3 and observe arrival time.
        network.send(MessageKind.LOOKUP_MISS, 1, 3, request_id=7, payload=GUID(1))
        simulator.run()
        assert len(seen) == 1
        assert simulator.now == pytest.approx(router.one_way_ms(1, 3))

    def test_unregistered_destination_raises(self, stack):
        simulator, network, router, nodes = stack
        with pytest.raises(SimulationError):
            network.send(MessageKind.LOOKUP, 1, 99, request_id=1)

    def test_request_ids_unique(self, stack):
        _sim, network, _router, _nodes = stack
        ids = {network.next_request_id() for _ in range(100)}
        assert len(ids) == 100

    def test_traffic_accounting(self, stack):
        simulator, network, _router, nodes = stack
        nodes[2].response_sink = lambda m: None
        network.send(MessageKind.LOOKUP_MISS, 1, 2, request_id=1, size_bits=800)
        simulator.run()
        assert network.bytes_sent == 100
        assert network.messages_sent == 1


class TestNodeProtocol:
    def test_insert_stores_and_acks(self, stack):
        simulator, network, router, nodes = stack
        acks = []
        nodes[1].response_sink = acks.append
        network.send(
            MessageKind.INSERT, 1, 4, request_id=11, payload=entry()
        )
        simulator.run()
        assert nodes[4].store.get(GUID(1)) is not None
        assert len(acks) == 1
        assert acks[0].kind is MessageKind.INSERT_ACK
        assert simulator.now == pytest.approx(2 * router.one_way_ms(1, 4))

    def test_lookup_hit_and_miss(self, stack):
        simulator, network, _router, nodes = stack
        responses = []
        nodes[1].response_sink = responses.append
        nodes[3].store.insert(entry())
        payload = {"guid": GUID(1), "is_local": False}
        network.send(MessageKind.LOOKUP, 1, 3, request_id=1, payload=payload)
        network.send(
            MessageKind.LOOKUP,
            1,
            2,
            request_id=2,
            payload={"guid": GUID(1), "is_local": False},
        )
        simulator.run()
        kinds = {m.request_id: m.kind for m in responses}
        assert kinds[1] is MessageKind.LOOKUP_HIT
        assert kinds[2] is MessageKind.LOOKUP_MISS

    def test_migrate_stores_silently(self, stack):
        simulator, network, _router, nodes = stack
        network.send(MessageKind.MIGRATE, 1, 2, request_id=1, payload=entry())
        simulator.run()
        assert nodes[2].store.get(GUID(1)) is not None

    def test_down_node_drops_requests(self):
        topology = line_fixture(n=3, link_ms=10.0)
        router = Router(topology)
        simulator = Simulator()
        network = Network(simulator, router)
        failures = RouterFailureModel([3])
        nodes = {
            asn: ASNode(asn, network, failures)
            for asn in topology.asns()
        }
        responses = []
        nodes[1].response_sink = responses.append
        network.send(
            MessageKind.LOOKUP,
            1,
            3,
            request_id=1,
            payload={"guid": GUID(1), "is_local": False},
        )
        simulator.run()
        assert responses == []

    def test_response_without_sink_raises(self, stack):
        simulator, network, _router, nodes = stack
        nodes[2].response_sink = None
        network.send(MessageKind.INSERT_ACK, 1, 2, request_id=1)
        with pytest.raises(SimulationError):
            simulator.run()
