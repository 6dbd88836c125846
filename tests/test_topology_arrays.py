"""The stored array layout is the topology: checks, reads and routing.

A topology keeps the arrays of ``ASTopology.adjacency_arrays`` it is
built from and serves every read from them.  These tests pin that a
loaded topology answers every query as the generated one does, and that
the constructor rejects every malformed layout.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.errors import RoutingError, TopologyError
from repro.topology.datasets import load_topology, topology_arrays
from repro.topology.generator import generate_internet_topology, small_scale_config
from repro.topology.graph import ASTopology
from repro.topology.routing import Router

from .topology_fixtures import coo_arrays, layout, linked


#: A well-formed path 1-2-3.
PATH = {1: [(2, 10.0)], 2: [(1, 10.0), (3, 5.0)], 3: [(2, 5.0)]}

#: A 4-byte ASN: a table indexed by ASN up to it would take 33 GB.
SPARSE = 4_200_000_000


class TestMalformedArrays:
    def test_well_formed_path_loads(self):
        topo = ASTopology(layout(PATH))
        assert topo.n_links() == 2
        topo.validate()

    def test_link_listed_at_one_end_only(self):
        one_ended = {1: [(2, 10.0)], 2: [(3, 5.0)], 3: [(2, 5.0)]}
        with pytest.raises(TopologyError, match="one end only"):
            ASTopology(layout(one_ended))

    def test_latencies_differ_at_the_two_ends(self):
        differ = {1: [(2, 10.0)], 2: [(1, 11.0), (3, 5.0)], 3: [(2, 5.0)]}
        with pytest.raises(TopologyError, match="different latencies"):
            ASTopology(layout(differ))

    @pytest.mark.parametrize("latency", [0.0, -4.0, math.nan])
    def test_latency_not_positive(self, latency):
        bad = {1: [(2, latency)], 2: [(1, latency), (3, 5.0)], 3: [(2, 5.0)]}
        with pytest.raises(TopologyError, match="positive latency"):
            ASTopology(layout(bad))

    def test_self_loop(self):
        looped = {1: [(2, 10.0), (1, 3.0)], 2: [(1, 10.0), (3, 5.0)], 3: [(2, 5.0)]}
        with pytest.raises(TopologyError, match="self-loop"):
            ASTopology(layout(looped))

    def test_neighbour_not_listed(self):
        stray = {1: [(2, 10.0), (9, 1.0)], 2: [(1, 10.0)]}
        with pytest.raises(TopologyError, match="not listed"):
            ASTopology(layout(stray))

    @pytest.mark.parametrize("base", [1, SPARSE], ids=["dense-asns", "sparse-asns"])
    @pytest.mark.parametrize("offset", [-1, 2, 9, 1 << 40], ids=["below", "gap", "above", "far"])
    def test_neighbour_outside_the_listed_asns(self, base, offset):
        # Below, between and above the listed ASNs, each through the flat
        # table (small ASNs) and the search (4-byte ASNs).  -2 would wrap
        # onto the table's entry for AS 4 if it were not clipped.
        a, b, c = base, base + 1, base + 3
        stray = -2 if offset == -1 else base + offset
        adjacency = {a: [(b, 10.0), (stray, 1.0)], b: [(a, 10.0), (c, 2.0)], c: [(b, 2.0)]}
        with pytest.raises(TopologyError, match=f"neighbour AS {stray} is not listed"):
            ASTopology(layout(adjacency))

    def test_neighbour_listed_twice_under_one_as(self):
        # Symmetric as a multiset, so only the duplicate check sees it.
        arrays = layout({1: [(2, 10.0)], 2: [(1, 10.0)]})
        arrays["adj_start"] = np.array([0, 2, 4])
        arrays["adj_asn"] = np.array([2, 2, 1, 1])
        arrays["adj_latency_ms"] = np.full(4, 10.0)
        with pytest.raises(TopologyError, match="twice"):
            ASTopology(arrays)

    def test_as_listed_twice(self):
        arrays = layout(PATH, asns=[1, 2, 3])
        arrays["asn"][2] = 1
        with pytest.raises(TopologyError):
            ASTopology(arrays)

    def test_lengths_disagree(self):
        arrays = layout(PATH)
        arrays["adj_start"] = arrays["adj_start"][:-1]
        with pytest.raises(TopologyError):
            ASTopology(arrays)

    def test_negative_attributes_rejected(self):
        with pytest.raises(TopologyError, match="intra-AS latencies"):
            ASTopology(layout(PATH, intra_ms=[1.0, -1.0, 1.0]))
        with pytest.raises(TopologyError, match="end-node counts"):
            ASTopology(layout(PATH, endnodes=[1, 1, -1]))

    @pytest.mark.parametrize("tier", [0, 4, -3])
    def test_unknown_tier(self, tier):
        with pytest.raises(TopologyError, match="unknown AS tier"):
            ASTopology(layout(PATH, tier=[3, tier, 3]))


def read_queries(topo):
    """Every read query's answer, the dense arrays with their dtypes."""
    asns = topo.asns()
    answers = {
        "len": len(topo),
        "asns": asns,
        "index": [topo.asn_index().lookup[asn] for asn in asns],
        "neighbors": [topo.neighbors(asn) for asn in asns],
        "degree": [topo.degree(asn) for asn in asns],
        "intra": [topo.intra_latency(asn) for asn in asns],
        "n_links": topo.n_links(),
    }
    arrays = {
        "intra_array": topo.intra_latency_array(),
        "endnode_array": topo.endnode_array(),
        "asn_index": topo.asn_index().asns,
        **{f"csr_{i}": a for i, a in enumerate(topo.csr_arrays())},
        **topo.adjacency_arrays(),
    }
    return answers, {name: (a.dtype, a.tolist()) for name, a in arrays.items()}


class TestLoadedEqualsGenerated:
    @pytest.fixture()
    def pair(self):
        generated = generate_internet_topology(small_scale_config(n_as=120), seed=2)
        return generated, load_topology(topology_arrays(generated))

    def test_every_read_query(self, pair):
        generated, loaded = pair
        answers, arrays = read_queries(loaded)
        assert (answers, arrays) == read_queries(generated)
        assert arrays["csr_2"][0] == arrays["intra_array"][0] == np.float64

    def test_reads_leave_the_stored_arrays_alone(self, pair):
        _, loaded = pair
        arrays = loaded.adjacency_arrays()
        arrays["adj_latency_ms"][:] = 1.0  # a copy
        with pytest.raises(ValueError):
            loaded.csr_arrays()[2][0] = 1.0  # read-only
        assert read_queries(loaded) == read_queries(pair[0])


class TestStoredOrder:
    """ASs stored out of ASN order: reads by ASN follow the stored order,
    dense reads the ascending one."""

    @pytest.fixture()
    def topo(self):
        return linked(
            [(30, 20, 4.0), (10, 30, 6.0)],
            [30, 10, 20],
            intra_ms=[3.0, 1.0, 2.0],
            endnodes=[3, 1, 2],
        )

    def test_reads(self, topo):
        assert topo.asns() == [10, 20, 30]
        assert [topo.asn_index().lookup[a] for a in (10, 20, 30)] == [0, 1, 2]
        assert topo.neighbors(30) == [20, 10]
        assert topo.intra_latency_array().tolist() == [1.0, 2.0, 3.0]
        assert topo.endnode_array().tolist() == [1.0, 2.0, 3.0]
        assert topo.adjacency_arrays()["endnodes"].tolist() == [3, 1, 2]
        rows, cols, weights = coo_arrays(topo)
        assert rows.tolist() == [2, 2, 0, 1]
        assert cols.tolist() == [1, 0, 2, 2]
        assert weights.tolist() == [4.0, 6.0, 6.0, 4.0]
        assert topo.adjacency_arrays()["asn"].tolist() == [30, 10, 20]

    def test_round_trip(self, topo):
        loaded = ASTopology(topo.adjacency_arrays())
        assert read_queries(loaded) == read_queries(topo)
        router = Router(loaded)
        assert router.latency_row(10).tolist() == [0.0, 10.0, 6.0]


class TestRouterOnLoadedArrays:
    @pytest.fixture(scope="class")
    def routers(self):
        generated = generate_internet_topology(small_scale_config(n_as=150), seed=4)
        loaded = load_topology(topology_arrays(generated))
        return generated, Router(generated), Router(loaded)

    def test_same_canonical_csr(self, routers):
        generated, built, loaded = routers
        rows, cols, weights = coo_arrays(generated)
        n = len(generated)
        # The COO -> CSR conversion the matrices were once built with.
        reference = {
            "_matrix": csr_matrix((weights, (rows, cols)), shape=(n, n)),
            "_hop_matrix": csr_matrix(
                (np.ones(len(weights), dtype=np.int8), (rows, cols)), shape=(n, n)
            ),
        }
        for name, want in reference.items():
            for router in (built, loaded):
                got = getattr(router, name)
                for part in ("indptr", "indices", "data"):
                    a, b = getattr(got, part), getattr(want, part)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (name, part)

    def test_same_rows(self, routers):
        generated, built, loaded = routers
        for asn in generated.asns()[::13]:
            assert np.array_equal(built.latency_row(asn), loaded.latency_row(asn))
            assert np.array_equal(built.hop_row(asn), loaded.hop_row(asn))
            assert built.intra_ms(asn) == loaded.intra_ms(asn)


class TestSparseAsns:
    """4-byte ASNs load and route without an allocation sized by the
    largest ASN."""

    ADJACENCY = {
        SPARSE + 7: [(17, 4.0), (SPARSE, 1.0)],
        17: [(SPARSE + 7, 4.0)],
        SPARSE: [(SPARSE + 7, 1.0)],
    }

    def test_loads_and_routes_in_bounded_memory(self):
        arrays = layout(self.ADJACENCY)
        tracemalloc.start()
        try:
            topo = ASTopology(arrays)
            topo.validate()
            router = Router(topo)
            row = router.latency_row(17)
            costs = router.one_way_costs(17, [SPARSE, SPARSE + 7])
            idx = router.indices_of(np.array([SPARSE + 7, 17, SPARSE]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert topo.asns() == [17, SPARSE, SPARSE + 7]
        assert topo.asn_index().lookup[SPARSE] == 1
        assert topo.neighbors(SPARSE + 7) == [17, SPARSE]
        assert row.tolist() == [0.0, 5.0, 4.0]
        assert costs == [1.0 + 5.0 + 1.0, 1.0 + 4.0 + 1.0]
        assert idx.tolist() == [2, 0, 1]
        for bogus in (SPARSE + 1, -1, 18):
            with pytest.raises(RoutingError, match=f"unknown AS {bogus}"):
                router.indices_of(np.array([17, bogus]))
            with pytest.raises(TopologyError, match=f"unknown AS {bogus}"):
                router.one_way_costs(17, [SPARSE, bogus])


def test_router_shares_the_topology_map_and_arc_order():
    topo = generate_internet_topology(small_scale_config(n_as=60), seed=1)
    router = Router(topo)
    assert router._asns is topo.asn_index()
    indptr, indices, weights = topo.csr_arrays()
    assert np.array_equal(router._matrix.indptr, indptr)
    assert np.array_equal(router._matrix.indices, indices)
    assert np.array_equal(router._matrix.data, weights)
