"""Unit tests for the AS topology graph structure."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.graph import ASTier, ASTopology

from .topology_fixtures import layout, linked


def simple_topology():
    return linked(
        [(1, 2, 5.0), (2, 3, 7.0)],
        [1, 2, 3],
        tier=[ASTier.TIER1, ASTier.TRANSIT, ASTier.STUB],
        intra_ms=[1.0, 2.0, 3.0],
        endnodes=[10, 20, 30],
    )


class TestLink:
    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            linked([(1, 2, 5.0), (1, 1, 5.0)], [1, 2])

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(TopologyError, match="positive latency"):
            linked([(1, 2, 0.0)], [1, 2])


class TestTopology:
    def test_reads(self):
        topo = simple_topology()
        assert len(topo) == 3
        assert topo.asns() == [1, 2, 3]
        assert topo.degree(2) == 2
        assert topo.neighbors(2) == [1, 3]
        assert topo.intra_latency(2) == 2.0
        assert topo.n_links() == 2
        assert topo.adjacency_arrays()["tier"].tolist() == [1, 2, 3]

    def test_unknown_as_raises(self):
        topo = simple_topology()
        for read in (topo.neighbors, topo.degree, topo.intra_latency):
            with pytest.raises(TopologyError, match="unknown AS 99"):
                read(99)

    def test_link_requires_registered_ases(self):
        with pytest.raises(TopologyError, match="neighbour AS 2 is not listed"):
            ASTopology(layout({1: [(2, 5.0)]}))

    def test_link_counter_matches_adjacency(self):
        rng = np.random.default_rng(3)
        for n_links in (0, 1, 40, 190):
            pairs = [(a, b) for a in range(1, 21) for b in range(a + 1, 21)]
            chosen = rng.choice(len(pairs), size=n_links, replace=False)
            links = [(*pairs[i], float(rng.uniform(1.0, 9.0))) for i in chosen]
            topo = linked(links, range(1, 21))
            adjacency_sum = sum(topo.degree(asn) for asn in topo.asns()) // 2
            assert topo.n_links() == adjacency_sum == n_links


class TestDenseIndex:
    def test_index_roundtrip(self):
        topo = simple_topology()
        asns = topo.asns()
        for asn in asns:
            assert asns[topo.asn_index().lookup[asn]] == asn

    def test_csr_arrays(self):
        indptr, indices, weights = simple_topology().csr_arrays()
        assert indptr.tolist() == [0, 1, 3, 4]
        assert indices.tolist() == [1, 0, 2, 1]
        assert weights.tolist() == [5.0, 5.0, 7.0, 7.0]

    def test_attribute_arrays(self):
        topo = simple_topology()
        assert topo.intra_latency_array().tolist() == [1.0, 2.0, 3.0]
        assert topo.endnode_array().tolist() == [10.0, 20.0, 30.0]


class TestValidation:
    def test_connected_passes(self):
        simple_topology().validate()

    def test_empty_fails(self):
        with pytest.raises(TopologyError, match="empty"):
            ASTopology(layout({})).validate()

    def test_disconnected_fails(self):
        topo = linked([(1, 2, 5.0), (2, 3, 7.0)], [1, 2, 3, 4])
        with pytest.raises(TopologyError, match="disconnected"):
            topo.validate()
