"""Tests for replica sets and selection policies."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.allocation import AllocationConfig, generate_global_prefix_table
from repro.core.guid import GUID
from repro.core.replication import ReplicaSelector, ReplicaSet
from repro.errors import ConfigurationError
from repro.fastpath import FastpathEngine
from repro.hashing.rehash import HashResolution
from .topology_fixtures import line_fixture, linked
from repro.topology.graph import ASTopology
from repro.topology.routing import Router


def res(asn: int, address: int = 0) -> HashResolution:
    return HashResolution(address, asn, attempts=1, via_deputy=False)


class TestReplicaSet:
    def test_global_asns_preserve_order_and_repeats(self):
        rs = ReplicaSet(GUID(1), (res(5), res(3), res(5)))
        assert rs.global_asns == (5, 3, 5)

    def test_all_asns_dedup_with_local(self):
        rs = ReplicaSet(GUID(1), (res(5), res(3), res(5)), local_asn=7)
        assert rs.all_asns == (5, 3, 7)

    def test_local_equal_to_global_not_duplicated(self):
        rs = ReplicaSet(GUID(1), (res(5), res(3)), local_asn=3)
        assert rs.all_asns == (5, 3)


class TestReplicaSelector:
    @pytest.fixture(scope="class")
    def line_router(self):
        return Router(line_fixture(n=6, link_ms=10.0, intra_ms=1.0))

    def test_latency_policy_orders_by_distance(self, line_router):
        selector = ReplicaSelector(line_router, "latency")
        assert selector.order_candidates(1, [6, 3, 2]) == [2, 3, 6]

    def test_hops_policy(self, line_router):
        selector = ReplicaSelector(line_router, "hops")
        assert selector.order_candidates(4, [1, 6, 5]) == [5, 6, 1]

    def test_self_is_closest(self, line_router):
        selector = ReplicaSelector(line_router, "latency")
        assert selector.order_candidates(3, [6, 3, 1])[0] == 3

    def test_duplicates_removed(self, line_router):
        selector = ReplicaSelector(line_router, "latency")
        assert selector.order_candidates(1, [4, 4, 2, 2]) == [2, 4]

    def test_unknown_policy_rejected(self, line_router):
        with pytest.raises(ConfigurationError):
            ReplicaSelector(line_router, "nearest")

    def test_empty_candidates_rejected(self, line_router):
        selector = ReplicaSelector(line_router, "latency")
        with pytest.raises(ConfigurationError):
            selector.order_candidates(1, [])

    def test_best_rtt(self, line_router):
        selector = ReplicaSelector(line_router, "latency")
        # 1 -> 2: intra 1 + link 10 + intra 1 = 12 one way, 24 RTT.
        best, one_way = selector.ranked(1, [6, 2])[0]
        assert best == 2
        assert 2.0 * one_way == pytest.approx(24.0)
        assert line_router.rtt_ms(1, best) == pytest.approx(24.0)

    def test_latency_vs_hops_can_disagree(self, topology, router, rng):
        # On the generated graph with heterogeneous link latencies the two
        # policies must rank identically-reachable candidates differently
        # at least sometimes.
        latency_sel = ReplicaSelector(router, "latency")
        hops_sel = ReplicaSelector(router, "hops")
        asns = topology.asns()
        disagreements = 0
        for _ in range(60):
            src = int(rng.choice(asns))
            candidates = [int(a) for a in rng.choice(asns, size=5, replace=False)]
            if latency_sel.order_candidates(src, candidates)[0] != (
                hops_sel.order_candidates(src, candidates)[0]
            ):
                disagreements += 1
        assert disagreements > 0


def two_components() -> ASTopology:
    """1 - 2 - 3 and 4 - 5 - 6: each half unreachable from the other."""
    links = [(1, 2, 3.0), (2, 3, 4.5), (4, 5, 3.0), (5, 6, 1.5)]
    asns = range(1, 7)
    return linked(links, asns, intra_ms=[0.25 * asn for asn in asns])


@pytest.fixture(scope="module")
def engines(topology):
    """Vector-form engines: ``(line, two-component, generated)``."""
    out = {}
    for name, topo in (
        ("line", line_fixture(n=6, link_ms=10.0, intra_ms=1.0)),
        ("split", two_components()),
        ("generated", topology),
    ):
        table = generate_global_prefix_table(
            topo.asns(), AllocationConfig(prefixes_per_as=2), seed=0
        )
        out[name] = FastpathEngine(table, Router(topo))
    return out


def vector_rank(engine, policy, src, unique):
    """Stable argsort of the fastpath's keys for one row, and its RTTs."""
    router = engine.router
    src_idx = router.indices_of([src])
    cand_idx = router.indices_of([unique])
    hop_path = None
    if policy == "hops":
        path, hop_path = router.pair_paths_and_hops(src_idx, cand_idx)
    else:
        path = router.pair_paths(src_idx, cand_idx)
    key, rtt = engine._prepare(np.array([src]), np.array([unique]), path, hop_path)
    order = np.argsort(key[0], kind="stable")
    return order.tolist(), rtt[0, order].tolist()


def assert_scalar_matches_vector(engine, policy, src, candidates):
    selector = ReplicaSelector(engine.router, policy)
    ranked = selector.ranked(src, candidates)
    unique = list(dict.fromkeys(candidates))
    order, rtts = vector_rank(engine, policy, src, unique)
    assert [asn for asn, _ in ranked] == [unique[i] for i in order]
    assert [2.0 * one_way for _, one_way in ranked] == rtts
    assert selector.order_candidates(src, candidates) == [unique[i] for i in order]


@st.composite
def queries(draw, asns):
    """A source and up to eight candidates (repeats likely), with the
    source itself among them half the time."""
    src = draw(st.sampled_from(asns))
    candidates = draw(st.lists(st.sampled_from(asns), min_size=1, max_size=8))
    if draw(st.booleans()):
        candidates.insert(draw(st.integers(0, len(candidates))), src)
    return src, candidates


class TestScalarOrderMatchesVectorRule:
    """The selector's stable ``sorted`` over :meth:`Router.one_way_costs`
    (or :meth:`Router.hop_costs`) orders and prices candidates exactly as
    ``np.argsort(kind="stable")`` over the fastpath's vector keys."""

    @pytest.mark.parametrize("policy", ["latency", "hops"])
    @pytest.mark.parametrize("name", ["line", "split", "generated"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_candidate_lists(self, engines, name, policy, data):
        engine = engines[name]
        src, candidates = data.draw(queries(engine.router.topology.asns()))
        assert_scalar_matches_vector(engine, policy, src, candidates)

    @pytest.mark.parametrize("policy", ["latency", "hops"])
    @pytest.mark.parametrize(
        "name, src, candidates",
        [
            # Exact ties (2 and 4 are one 10 ms link from 3), repeats and
            # the querier's own AS.
            ("line", 3, [4, 2, 3, 2, 4]),
            ("line", 1, [6, 6, 1, 5]),
            # Unreachable candidates (4, 5, 6 from 1) sort last, as inf.
            ("split", 1, [5, 2, 1, 4, 2, 3]),
            ("split", 6, [1, 2, 3]),
        ],
    )
    def test_ties_repeats_self_and_unreachable(
        self, engines, name, policy, src, candidates
    ):
        assert_scalar_matches_vector(engines[name], policy, src, candidates)
