"""Tests for the Jellyfish topology decomposition (§V-A)."""

import numpy as np
import pytest

from repro.errors import TopologyError
from .topology_fixtures import line_fixture, star_fixture
from repro.topology.graph import ASInfo, ASTopology
from repro.topology.jellyfish import decompose


class TestStarFixture:
    def test_hub_is_root_and_leaves_hang(self):
        dec = decompose(star_fixture(n_leaves=5))
        assert dec.root == 1
        # Core = {hub, one leaf} (the maximal clique containing the hub is
        # an edge); every other leaf is a degree-1 node at distance 1 from
        # the core, i.e. Hang-0, i.e. Layer(1).
        assert 1 in dec.core
        assert len(dec.core) == 2
        assert dec.n_layers == 2
        assert set(dec.layers[1]) == set(range(2, 7)) - set(dec.core)

    def test_ratios_sum_to_one(self):
        dec = decompose(star_fixture(n_leaves=7))
        assert dec.layer_ratios().sum() == pytest.approx(1.0)


class TestLineFixture:
    def test_line_layers(self):
        # 1-2-3-4-5: the max-degree node is 2 (ties to lowest ASN); the
        # maximal clique containing it is an edge.
        dec = decompose(line_fixture(n=5))
        layer_of = dec.layer_of()
        assert set(layer_of) == {1, 2, 3, 4, 5}
        # Endpoints are degree-1, so they are hangs of the layer inside.
        assert all(asn in layer_of for asn in (1, 5))


class TestPartitionProperties:
    @pytest.fixture(scope="class")
    def generated(self):
        from repro.topology.generator import (
            generate_internet_topology,
            small_scale_config,
        )

        return generate_internet_topology(small_scale_config(n_as=200), seed=2)

    def test_every_as_in_exactly_one_layer(self, generated):
        dec = decompose(generated)
        seen = []
        for layer in dec.layers:
            seen.extend(layer)
        assert sorted(seen) == generated.asns()

    def test_core_is_a_clique(self, generated):
        dec = decompose(generated)
        for i, a in enumerate(dec.core):
            for b in dec.core[i + 1 :]:
                assert b in generated.neighbors(a)

    def test_root_has_max_degree(self, generated):
        dec = decompose(generated)
        max_degree = max(generated.degree(a) for a in generated.asns())
        assert generated.degree(dec.root) == max_degree

    def test_hangs_are_degree_one(self, generated):
        dec = decompose(generated)
        for hang in dec.hangs:
            for asn in hang:
                assert generated.degree(asn) == 1

    def test_shell_distances_consistent(self, generated):
        # Shell-j nodes must have a neighbor in shell/core distance j-1.
        dec = decompose(generated)
        layer_index = {}
        core_set = set(dec.core)
        # Recompute distance-to-core via BFS for independent verification.
        dist = {a: 0 for a in dec.core}
        frontier = list(dec.core)
        level = 0
        while frontier:
            level += 1
            nxt = []
            for a in frontier:
                for n in generated.neighbors(a):
                    if n not in dist:
                        dist[n] = level
                        nxt.append(n)
            frontier = nxt
        for j, shell in enumerate(dec.shells):
            for asn in shell:
                assert dist[asn] == j

    def test_ratios_sum_to_one(self, generated):
        assert decompose(generated).layer_ratios().sum() == pytest.approx(1.0)


class TestErrors:
    def test_empty_topology(self):
        with pytest.raises(TopologyError):
            decompose(ASTopology())

    def test_disconnected_topology(self):
        topo = ASTopology()
        for asn in (1, 2, 3, 4):
            topo.add_as(ASInfo(asn))
        topo.add_link(1, 2, 1.0)
        topo.add_link(3, 4, 1.0)
        with pytest.raises(TopologyError, match="unreachable"):
            decompose(topo)
