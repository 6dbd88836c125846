"""Tests for the shortest-path routing oracle."""

import os

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.errors import RoutingError, TopologyError
from .topology_fixtures import line_fixture, linked, star_fixture
from repro.topology import routing
from repro.topology.routing import Router, certified


class TestLineFixture:
    @pytest.fixture(scope="class")
    def line_router(self):
        # 1 - 2 - 3 - 4 - 5, links 10 ms, intra 1 ms.
        return Router(line_fixture(n=5, link_ms=10.0, intra_ms=1.0))

    def test_path_latency_exact(self, line_router):
        assert line_router.path_latency_ms(1, 4) == pytest.approx(30.0)
        assert line_router.path_latency_ms(2, 3) == pytest.approx(10.0)
        assert line_router.path_latency_ms(3, 3) == 0.0

    def test_hops_exact(self, line_router):
        assert line_router.hops(1, 5) == 4
        assert line_router.hops(2, 2) == 0

    def test_one_way_includes_intra(self, line_router):
        # intra(src) + path + intra(dst) = 1 + 30 + 1.
        assert line_router.one_way_ms(1, 4) == pytest.approx(32.0)
        # Same AS: intra only.
        assert line_router.one_way_ms(3, 3) == pytest.approx(1.0)

    def test_rtt_is_double(self, line_router):
        assert line_router.rtt_ms(1, 4) == pytest.approx(64.0)

    def test_one_way_costs(self, line_router):
        out = line_router.one_way_costs(2, [1, 2, 5])
        assert out == pytest.approx([12.0, 1.0, 32.0])

    def test_closest_of_by_latency(self, line_router):
        asn, latency = line_router.closest_of(2, np.array([5, 1, 4]))
        assert asn == 1
        assert latency == pytest.approx(12.0)

    def test_closest_of_self_wins(self, line_router):
        asn, latency = line_router.closest_of(3, np.array([1, 3, 5]))
        assert asn == 3
        assert latency == pytest.approx(1.0)

    def test_closest_of_validation(self, line_router):
        with pytest.raises(RoutingError):
            line_router.closest_of(1, np.array([], dtype=np.int64))


class TestCaching:
    def test_rows_are_cached(self):
        router = Router(star_fixture(n_leaves=6))
        router.latency_row(1)
        runs = router.dijkstra_runs
        router.latency_row(1)
        router.rtt_ms(1, 3)
        assert router.dijkstra_runs == runs

    def test_lru_eviction(self):
        router = Router(line_fixture(n=6), cache_size=2)
        router.latency_row(1)
        router.latency_row(2)
        router.latency_row(3)  # evicts AS 1's row
        runs = router.dijkstra_runs
        router.latency_row(1)
        assert router.dijkstra_runs == runs + 1

    def test_cache_stats(self):
        router = Router(line_fixture(n=4))
        router.latency_row(1)
        router.hop_row(2)
        stats = router.cache_stats()
        assert stats["latency_rows"] == 1
        assert stats["hop_rows"] == 1
        assert stats["dijkstra_runs"] == 2

    def test_evictions_counted(self):
        router = Router(line_fixture(n=6), cache_size=2)
        router.latency_row(1)
        router.latency_row(2)
        assert router.cache_stats()["evictions"] == 0
        router.latency_row(1)  # hit: nothing computed, nothing evicted
        router.latency_row(3)  # evicts AS 2's row (least recently used)
        router.hop_row(4)  # the hop cache is separate and still has room
        stats = router.cache_stats()
        assert stats["evictions"] == 1
        assert stats["dijkstra_runs"] == 4
        router.latency_row(2)  # recomputed, evicting AS 1's row
        assert router.cache_stats()["evictions"] == 2
        assert router.cache_stats()["latency_rows"] == 2

    def test_cache_size_validation(self):
        with pytest.raises(RoutingError):
            Router(line_fixture(n=3), cache_size=0)


class TestPairPaths:
    """``pair_paths`` derives an independent set of sources from their
    neighbours' rows and must still return Dijkstra's float32 bits."""

    @pytest.mark.parametrize("hops", [False, True], ids=["latency", "hops"])
    def test_every_pair_bit_identical(self, topology, hops):
        router = Router(topology)
        n = router.n
        # Every source, every host (the diagonal included).
        got = router.pair_paths(
            np.arange(n), np.tile(np.arange(n), (n, 1)), hops=hops
        )
        stats = router.cache_stats()
        assert stats["derived_rows"] > 0
        exact, derived = router.plan_rows(np.arange(n))
        assert stats["derived_rows"] == len(derived)
        assert stats["dijkstra_runs"] == len(exact) + stats["fallback_rows"] < n
        assert stats["latency_rows"] == stats["hop_rows"] == 0
        reference = Router(topology)
        fetch = reference.hop_row if hops else reference.latency_row
        for s, asn in enumerate(topology.asns()):
            expected = fetch(asn)
            assert got.dtype == expected.dtype == np.float32
            assert np.array_equal(got[s], expected), f"source AS {asn}"
            assert got[s, s] == 0
        # The router runs Dijkstra directed over the two-way CSR; the
        # undirected run gives the same bits.
        matrix = reference._hop_matrix if hops else reference._matrix
        undirected = dijkstra(matrix, directed=False).astype(np.float32)
        assert np.array_equal(got, undirected)

    def test_cells_follow_the_request_shape(self, topology):
        router = Router(topology)
        rng = np.random.default_rng(3)
        src = rng.integers(0, router.n, size=40)
        dst = rng.integers(0, router.n, size=(40, 3))
        dst[0, 1] = src[0]
        got = router.pair_paths(src, dst)
        assert got.shape == dst.shape
        reference = Router(topology)
        for i in range(len(src)):
            row = reference.latency_row(topology.asns()[src[i]])
            assert np.array_equal(got[i], row[dst[i]])

    def test_plan_is_independent_and_never_exceeds_sources(self, topology):
        router = Router(topology)
        indptr, indices = router._matrix.indptr, router._matrix.indices
        rng = np.random.default_rng(11)
        for size in (5, 40, 150, router.n):
            sources = rng.choice(router.n, size=size, replace=False)
            exact, derived = router.plan_rows(sources)
            assert len(exact) <= size
            assert set(derived.tolist()) <= set(sources.tolist())
            is_derived = np.zeros(router.n, dtype=bool)
            is_derived[derived] = True
            for s in derived.tolist():
                nbrs = indices[indptr[s] : indptr[s + 1]]
                assert not is_derived[nbrs].any()
                assert set(nbrs.tolist()) <= set(exact.tolist())
            rest = set(sources.tolist()) - set(derived.tolist())
            assert rest <= set(exact.tolist())

    def test_certified_rejects_a_float32_midpoint(self):
        midpoint = 1.0 + 2.0**-24  # halfway between two float32 values
        got = certified(
            np.array([midpoint, 1.0 + 2.0**-22, np.inf, 30.25]), w_min=0.5, n=4
        )
        assert got.tolist() == [False, True, True, True]
        # Far enough from the midpoint for the error bound, it certifies.
        assert certified(np.array([midpoint + 2.0**-40]), w_min=0.5, n=4)[0]

    def test_fallback_row_on_rounding_boundary(self):
        # Line 1 - 2 - 3 - 4.  Dijkstra from AS 1 sums w1 + w2 + w3 left
        # to right; the derivation for AS 1 via AS 2 adds w1 to
        # (w2 + w3).  The two float64 results sit on either side of a
        # float32 midpoint, so only the fallback row gives Dijkstra's bits.
        topo = linked(
            [(1, 2, 1.0 + 2.0**-24), (2, 3, 2.0**-53), (3, 4, 2.0**-53)], [1, 2, 3, 4]
        )
        router = Router(topo)
        got = router.pair_paths(np.arange(4), np.tile(np.arange(4), (4, 1)))
        exact, derived = router.plan_rows(np.arange(4))
        assert derived.tolist() == [0, 3] and exact.tolist() == [1, 2]
        reference = Router(topo)
        for s in range(4):
            assert np.array_equal(got[s], reference.latency_row(s + 1))
        stats = router.cache_stats()
        assert stats["fallback_rows"] == 2
        assert stats["dijkstra_runs"] == len(exact) + 2
        # The boundary is real: the uncertified estimate for (1, 4) rounds
        # to a different float32 than Dijkstra's value.
        estimate = (1.0 + 2.0**-24) + (2.0**-53 + 2.0**-53)
        assert np.float32(estimate) != got[0, 3]

    def test_both_metrics_share_one_plan(self, topology, monkeypatch):
        rng = np.random.default_rng(5)
        src = rng.integers(0, len(topology), size=60)
        dst = rng.integers(0, len(topology), size=(60, 4))
        separate = Router(topology)
        expected = [separate.pair_paths(src, dst, hops=h) for h in (False, True)]
        router = Router(topology)
        plans = []
        real = Router.plan_rows

        def counting(self, sources):
            plans.append(len(sources))
            return real(self, sources)

        monkeypatch.setattr(Router, "plan_rows", counting)
        got = router.pair_paths_and_hops(src, dst)
        assert len(plans) == 1
        for cells, want in zip(got, expected):
            assert cells.dtype == np.float32
            assert np.array_equal(cells, want)
        assert router.cache_stats() == separate.cache_stats()


class TestPairPathWorkers:
    """``pair_paths`` with ``n_jobs`` workers min-merges their lanes and
    must return the serial stream's bits for every worker count."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # Small blocks, so that every worker count has blocks to share.
        monkeypatch.setattr(routing, "ROW_BLOCK", 4)

    @staticmethod
    def _all_pairs(router, n_jobs, hops=False):
        n = router.n
        return router.pair_paths(
            np.arange(n), np.tile(np.arange(n), (n, 1)), hops=hops, n_jobs=n_jobs
        )

    @pytest.mark.parametrize("hops", [False, True], ids=["latency", "hops"])
    def test_every_worker_count_gives_dijkstra_bits(self, topology, hops):
        reference = Router(topology)
        fetch = reference.hop_row if hops else reference.latency_row
        expected = np.stack([fetch(asn) for asn in topology.asns()])
        stats = []
        for n_jobs in (1, 2, 3):
            router = Router(topology)
            got = self._all_pairs(router, n_jobs, hops)
            assert got.dtype == np.float32
            assert np.array_equal(got, expected), f"n_jobs={n_jobs}"
            stats.append(router.cache_stats())
        assert stats[0]["derived_rows"] > 0
        exact, _ = Router(topology).plan_rows(np.arange(len(topology)))
        assert len(exact) > 3 * routing.ROW_BLOCK
        # Every streamed row is counted, whichever process computed it.
        assert stats[0] == stats[1] == stats[2]

    def test_cells_of_a_request_match_across_worker_counts(self, topology):
        rng = np.random.default_rng(5)
        src = rng.integers(0, len(topology), size=300)
        dst = rng.integers(0, len(topology), size=(300, 5))
        serial = Router(topology).pair_paths(src, dst)
        for n_jobs in (2, 3):
            assert np.array_equal(
                Router(topology).pair_paths(src, dst, n_jobs=n_jobs), serial
            )

    def test_forced_fallback_rows_merge_exactly(self, topology, monkeypatch):
        # Reject every third derived cell: their sources get fallback rows.
        real = routing.certified
        monkeypatch.setattr(
            routing,
            "certified",
            lambda values, w_min, n: real(values, w_min, n)
            & (np.arange(len(values)) % 3 != 0),
        )
        reference = Router(topology)
        expected = np.stack([reference.latency_row(a) for a in topology.asns()])
        stats = []
        for n_jobs in (1, 2, 3):
            router = Router(topology)
            assert np.array_equal(self._all_pairs(router, n_jobs), expected)
            stats.append(router.cache_stats())
        assert stats[0]["fallback_rows"] > routing.ROW_BLOCK
        assert stats[0] == stats[1] == stats[2]

    def test_fallback_row_replaces_a_lower_derived_value(self, monkeypatch):
        # Line 1 - 2 - 3 - 4, with AS 1 and AS 4 derived.  Dijkstra from
        # AS 1 rounds (w1 + w2) + w3 up past the float32 midpoint m; the
        # derivation w1 + (w2 + w3) stays below it.  The fallback row must
        # win the merge although its float64 value is the larger one.
        monkeypatch.setattr(routing, "ROW_BLOCK", 1)
        ulp = 2.0**-52
        m = 1.0 + 2.0**-24
        topo = linked([(1, 2, m - ulp), (2, 3, 0.6 * ulp), (3, 4, 0.6 * ulp)], [1, 2, 3, 4])
        derived_estimate = (m - ulp) + (0.6 * ulp + 0.6 * ulp)
        reference = Router(topo)
        assert np.float32(derived_estimate) < reference.latency_row(1)[3]
        for n_jobs in (1, 2):
            router = Router(topo)
            got = self._all_pairs(router, n_jobs)
            assert router.cache_stats()["fallback_rows"] == 2
            for s in range(4):
                assert np.array_equal(got[s], reference.latency_row(s + 1))

    @staticmethod
    def _deal_unevenly(topology, monkeypatch, src):
        """Set ``ROW_BLOCK`` so that the request's planned rows fill a
        block count that is odd and not a multiple of 3."""
        exact, _ = Router(topology).plan_rows(src)
        for block in range(2, len(exact)):
            blocks = -(-len(exact) // block)
            if blocks > 3 and blocks % 2 and blocks % 3:
                monkeypatch.setattr(routing, "ROW_BLOCK", block)
                return
        raise AssertionError("no block size deals unevenly")

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_requests_match_the_rows(self, topology, monkeypatch, n_jobs):
        rng = np.random.default_rng(17)
        n = len(topology)
        src = rng.integers(0, n, size=120)
        dst = rng.integers(0, n, size=(120, 4))
        src[60:90], dst[60:90] = src[:30], dst[:30]  # repeated rows
        dst[:, 3] = dst[:, 1]  # a cell repeated within its row
        dst[::5, 2] = src[::5]  # self pairs
        lone = np.full(25, src[7])
        requests = [(src, dst), (lone, rng.integers(0, n, size=(25, 3)))]
        self._deal_unevenly(topology, monkeypatch, src)
        reference = Router(topology)
        for s, d in requests:
            router = Router(topology)
            latency = router.pair_paths(s, d, n_jobs=n_jobs)
            both = router.pair_paths_and_hops(s, d, n_jobs=n_jobs)
            assert np.array_equal(both[0], latency)
            for i, sx in enumerate(s.tolist()):
                asn = topology.asns()[sx]
                assert np.array_equal(latency[i], reference.latency_row(asn)[d[i]])
                assert np.array_equal(both[1][i], reference.hop_row(asn)[d[i]])
                assert not latency[i][d[i] == sx].any()

    def test_a_failed_worker_raises(self, topology, monkeypatch):
        parent = os.getpid()
        real = routing.dijkstra

        def dies_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError("worker lost")
            return real(*args, **kwargs)

        monkeypatch.setattr(routing, "dijkstra", dies_in_workers)
        with pytest.raises(RoutingError, match="worker"):
            self._all_pairs(Router(topology), 2)


class TestUnreachable:
    @pytest.fixture
    def split_router(self):
        return Router(linked([(1, 2, 5.0), (3, 4, 5.0)], [1, 2, 3, 4]))

    def test_pair_paths_unreachable_is_inf(self, split_router):
        n = split_router.n
        got = split_router.pair_paths(np.arange(n), np.tile(np.arange(n), (n, 1)))
        assert split_router.cache_stats()["derived_rows"] > 0
        assert np.isinf(got[0, 2]) and np.isinf(got[3, 1])
        assert got[0, 1] == got[1, 0] == got[2, 3] == np.float32(5.0)
        assert np.diag(got).tolist() == [0.0] * n
        hops = split_router.pair_paths(
            np.arange(n), np.tile(np.arange(n), (n, 1)), hops=True
        )
        assert np.isinf(hops[1, 3]) and hops[1, 0] == 1

    def test_unreachable_raises(self, split_router):
        with pytest.raises(RoutingError, match="unreachable"):
            split_router.path_latency_ms(1, 3)
        with pytest.raises(RoutingError):
            split_router.hops(1, 4)
        with pytest.raises(RoutingError):
            split_router.one_way_ms(2, 3)


class TestConsistency:
    def test_latency_matches_hand_dijkstra(self, topology, router, rng):
        # Spot-check the scipy path against a slow hand-rolled Dijkstra.
        import heapq

        asns = topology.asns()
        arrays = topology.adjacency_arrays()
        bounds = arrays["adj_start"].tolist()
        nbrs, latencies = arrays["adj_asn"].tolist(), arrays["adj_latency_ms"].tolist()
        links = {
            asn: dict(zip(nbrs[lo:hi], latencies[lo:hi]))
            for asn, lo, hi in zip(arrays["asn"].tolist(), bounds, bounds[1:])
        }
        src = int(rng.choice(asns))
        dist = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for nbr, latency in links[node].items():
                nd = d + latency
                if nd < dist.get(nbr, float("inf")):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
        for dst in list(rng.choice(asns, size=10)):
            dst = int(dst)
            assert router.path_latency_ms(src, dst) == pytest.approx(
                dist[dst], rel=1e-5
            )

    def test_symmetry(self, router, asns, rng):
        for _ in range(10):
            a, b = (int(x) for x in rng.choice(asns, size=2))
            assert router.path_latency_ms(a, b) == pytest.approx(
                router.path_latency_ms(b, a), rel=1e-5
            )

    def test_triangle_inequality(self, router, asns, rng):
        for _ in range(10):
            a, b, c = (int(x) for x in rng.choice(asns, size=3))
            direct = router.path_latency_ms(a, c)
            via = router.path_latency_ms(a, b) + router.path_latency_ms(b, c)
            assert direct <= via + 1e-6


@pytest.fixture(scope="module")
def gap_router():
    # Non-contiguous ASNs so the dense lookup table has real holes.
    return Router(linked([(10, 20, 4.0), (20, 40, 6.0)], [10, 20, 40], intra_ms=0.5))


class TestVectorizedQueries:
    """Dense asn->index translation and exact-integer hops."""

    def test_indices_of_matches_index_of(self, gap_router):
        out = gap_router.indices_of(np.array([40, 10, 20, 10]))
        expected = [gap_router.topology.asn_index().lookup[a] for a in (40, 10, 20, 10)]
        assert out.tolist() == expected

    def test_indices_of_preserves_shape(self, gap_router):
        out = gap_router.indices_of(np.array([[10, 20], [40, 10]]))
        assert out.shape == (2, 2)

    def test_indices_of_unknown_raises(self, gap_router):
        for bogus in (30, 41, -1, 10_000):
            with pytest.raises(RoutingError, match="unknown AS"):
                gap_router.indices_of(np.array([10, bogus]))

    def test_hop_rows_are_exact_integers(self, router, asns):
        row = router.hop_row(int(asns[0]))
        finite = np.isfinite(row)
        assert np.array_equal(row[finite], np.round(row[finite]))

    def test_hops_exact_integers_on_line(self):
        router = Router(line_fixture(n=9, link_ms=0.1, intra_ms=0.01))
        # Sub-millisecond float weights must not leak into hop counts.
        for dst in range(2, 10):
            hops = router.hops(1, dst)
            assert isinstance(hops, int)
            assert hops == dst - 1

    def test_hop_matrix_uses_unit_integer_weights(self, router):
        assert router._hop_matrix.dtype == np.int8
        assert set(np.unique(router._hop_matrix.data).tolist()) == {1}


class TestScalarRule:
    """``one_way_costs`` is the one scalar form of the one-way rule;
    ``one_way_ms`` and ``rtt_ms`` are it for one destination."""

    def test_one_way_costs_bitwise_equal_vector_rule(self, router, asns, rng):
        src = int(rng.choice(asns))
        dst = np.asarray(rng.choice(asns, size=64), dtype=np.int64)
        dst[0] = src
        # The vector form: the float32 path widened to float64, then the
        # same left-to-right sum; the querier's own AS is intra alone.
        intra = router.intra_array
        src_idx = router.topology.asn_index().lookup[src]
        dst_idx = router.indices_of(dst)
        path = router.latency_row(src)[dst_idx].astype(np.float64)
        one_way = intra[src_idx] + path + intra[dst_idx]
        one_way[dst_idx == src_idx] = intra[src_idx]
        costs = router.one_way_costs(src, dst.tolist())
        # Exact float equality, not approx: the fastpath engine relies on
        # the two forms producing identical bits.
        assert costs == one_way.tolist()
        assert [2.0 * c for c in costs] == [router.rtt_ms(src, int(d)) for d in dst]

    def test_rtt_ms_bitwise_on_every_pair(self, topology, router):
        intra = router.intra_array
        for s, src in enumerate(topology.asns()):
            row = router.latency_row(src)
            for d, dst in enumerate(topology.asns()):
                if d == s:
                    expected = 2.0 * intra[s]
                else:
                    expected = 2.0 * (intra[s] + np.float64(row[d]) + intra[d])
                assert router.rtt_ms(src, dst) == expected, (src, dst)

    def test_rtt_ms_same_as_is_intra_only(self, gap_router):
        assert gap_router.one_way_costs(20, [20]) == [0.5]
        assert gap_router.rtt_ms(20, 20) == 2.0 * 0.5

    def test_unreachable_is_inf_until_priced(self):
        router = Router(linked([(1, 2, 5.0)], [1, 2, 3]))  # AS 3 is isolated
        costs = router.one_way_costs(1, [2, 3])
        assert np.isfinite(costs[0])
        assert np.isinf(costs[1])
        assert router.rtt_ms(1, 2) == 2.0 * costs[0]
        for query in (router.rtt_ms, router.one_way_ms):
            with pytest.raises(RoutingError, match="unreachable"):
                query(1, 3)
        with pytest.raises(RoutingError, match="AS 3 unreachable from AS 1"):
            Router.reached(1, 3, costs[1])

    def test_unknown_as_raises_topology_error(self, gap_router):
        for bogus in (30, 41, -1, 10_000):
            for query in (
                lambda: gap_router.rtt_ms(10, bogus),
                lambda: gap_router.rtt_ms(bogus, 10),
                lambda: gap_router.one_way_ms(bogus, bogus),
                lambda: gap_router.one_way_costs(10, [20, bogus]),
                lambda: gap_router.hop_costs(10, [bogus]),
                lambda: gap_router.intra_ms(bogus),
            ):
                with pytest.raises(TopologyError, match=f"unknown AS {bogus}"):
                    query()

    def test_own_as_reads_no_row(self):
        router = Router(line_fixture(n=4))
        assert router.one_way_costs(2, [2, 2]) == [router.intra_array[1]] * 2
        router.rtt_ms(3, 3)
        assert router.dijkstra_runs == 0
        router.one_way_costs(2, [2, 3])
        assert router.dijkstra_runs == 1
