"""Unit tests for the AS topology graph structure."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.graph import ASInfo, ASTier, ASTopology, Link


def simple_topology():
    topo = ASTopology()
    topo.add_as(ASInfo(1, ASTier.TIER1, intra_latency_ms=1.0, endnodes=10))
    topo.add_as(ASInfo(2, ASTier.TRANSIT, intra_latency_ms=2.0, endnodes=20))
    topo.add_as(ASInfo(3, ASTier.STUB, intra_latency_ms=3.0, endnodes=30))
    topo.add_link(1, 2, 5.0)
    topo.add_link(2, 3, 7.0)
    return topo


class TestLink:
    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link(1, 1, 5.0)

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(TopologyError):
            Link(1, 2, 0.0)

    def test_other(self):
        link = Link(1, 2, 5.0)
        assert link.other(1) == 2
        assert link.other(2) == 1
        with pytest.raises(TopologyError):
            link.other(3)


class TestTopology:
    def test_add_and_query(self):
        topo = simple_topology()
        assert len(topo) == 3
        assert 2 in topo
        assert topo.info(2).tier is ASTier.TRANSIT
        assert topo.degree(2) == 2
        assert sorted(topo.neighbors(2)) == [1, 3]
        assert topo.link_latency(1, 2) == 5.0
        assert topo.n_links() == 2

    def test_unknown_as_raises(self):
        topo = simple_topology()
        with pytest.raises(TopologyError):
            topo.info(99)
        with pytest.raises(TopologyError):
            topo.neighbors(99)
        with pytest.raises(TopologyError):
            topo.link_latency(1, 3)

    def test_link_requires_registered_ases(self):
        topo = ASTopology()
        topo.add_as(ASInfo(1))
        with pytest.raises(TopologyError):
            topo.add_link(1, 2, 5.0)

    def test_remove_link(self):
        topo = simple_topology()
        topo.remove_link(1, 2)
        assert topo.n_links() == 1
        with pytest.raises(TopologyError):
            topo.remove_link(1, 2)

    def test_link_counter_matches_adjacency(self):
        rng = np.random.default_rng(3)
        topo = ASTopology()
        for asn in range(1, 21):
            topo.add_as(ASInfo(asn, ASTier.STUB, intra_latency_ms=1.0, endnodes=1))
        for _ in range(400):
            a, b = (int(x) for x in rng.choice(np.arange(1, 21), size=2, replace=False))
            if rng.random() < 0.3 and b in topo.neighbors(a):
                topo.remove_link(a, b)
            else:
                # Re-adding an existing link only updates its latency.
                topo.add_link(a, b, float(rng.uniform(1.0, 9.0)))
            adjacency_sum = sum(topo.degree(asn) for asn in topo.asns()) // 2
            assert topo.n_links() == adjacency_sum == len(list(topo.links()))

    def test_readd_as_replaces_attributes(self):
        topo = simple_topology()
        topo.add_as(ASInfo(3, ASTier.STUB, intra_latency_ms=9.0, endnodes=5))
        assert topo.info(3).intra_latency_ms == 9.0
        assert topo.degree(3) == 1, "links survive attribute updates"

    def test_negative_attributes_rejected(self):
        topo = ASTopology()
        with pytest.raises(TopologyError):
            topo.add_as(ASInfo(1, intra_latency_ms=-1.0))
        with pytest.raises(TopologyError):
            topo.add_as(ASInfo(1, endnodes=-1))

    def test_links_iterated_once(self):
        topo = simple_topology()
        links = list(topo.links())
        assert len(links) == 2
        assert all(l.a < l.b for l in links)


class TestDenseIndex:
    def test_index_roundtrip(self):
        topo = simple_topology()
        for asn in topo.asns():
            assert topo.asn_at(topo.index_of(asn)) == asn

    def test_index_unknown(self):
        with pytest.raises(TopologyError):
            simple_topology().index_of(99)

    def test_edge_arrays(self):
        topo = simple_topology()
        rows, cols, weights = topo.edge_arrays()
        assert len(rows) == 4  # 2 undirected links = 4 directed entries
        assert set(zip(rows.tolist(), cols.tolist())) == {
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
        }

    def test_attribute_arrays(self):
        topo = simple_topology()
        assert topo.intra_latency_array().tolist() == [1.0, 2.0, 3.0]
        assert topo.endnode_array().tolist() == [10.0, 20.0, 30.0]

    def test_endnode_counts(self):
        assert simple_topology().endnode_counts() == {1: 10, 2: 20, 3: 30}


class TestValidation:
    def test_connected_passes(self):
        simple_topology().validate()

    def test_empty_fails(self):
        with pytest.raises(TopologyError):
            ASTopology().validate()

    def test_disconnected_fails(self):
        topo = simple_topology()
        topo.add_as(ASInfo(4))
        with pytest.raises(TopologyError, match="disconnected"):
            topo.validate()
