"""Tests for topology persistence and fixtures."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.datasets import (
    load_topology,
    read_arrays,
    save_topology,
    topology_arrays,
)
from repro.topology.generator import generate_internet_topology, small_scale_config
from repro.topology.graph import ASTopology

from .topology_fixtures import line_fixture, star_fixture


class TestFixtures:
    def test_line(self):
        topo = line_fixture(n=4, link_ms=10.0)
        assert len(topo) == 4
        assert topo.n_links() == 3
        topo.validate()

    def test_line_too_small(self):
        with pytest.raises(TopologyError):
            line_fixture(n=1)

    def test_star(self):
        topo = star_fixture(n_leaves=5)
        assert len(topo) == 6
        assert topo.degree(1) == 5
        topo.validate()

    def test_star_too_small(self):
        with pytest.raises(TopologyError):
            star_fixture(n_leaves=0)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        original = generate_internet_topology(small_scale_config(n_as=60), seed=3)
        path = str(tmp_path / "topo.arrays")
        save_topology(original, path)
        loaded = load_topology(path)
        assert loaded.asns() == original.asns()
        assert loaded.n_links() == original.n_links()
        for asn in original.asns():
            a, b = original.info(asn), loaded.info(asn)
            assert a.tier == b.tier
            assert a.intra_latency_ms == pytest.approx(b.intra_latency_ms)
            assert a.endnodes == b.endnodes
        for link in original.links():
            assert loaded.link_latency(link.a, link.b) == pytest.approx(
                link.latency_ms
            )

    def test_roundtrip_keeps_neighbour_order(self, tmp_path):
        # Replaying a link list through add_link reorders neighbours; the
        # archive keeps each AS's adjacency in insertion order.
        original = generate_internet_topology(small_scale_config(n_as=80), seed=5)
        path = str(tmp_path / "topo.arrays")
        save_topology(original, path)
        loaded = load_topology(path)
        for asn in original.asns():
            assert loaded.neighbors(asn) == original.neighbors(asn)
            assert loaded.info(asn) == original.info(asn)
        for got, want in zip(loaded.edge_arrays(), original.edge_arrays()):
            assert np.array_equal(got, want)
        assert list(loaded.links()) == list(original.links())

    def test_asymmetric_adjacency_rejected(self):
        arrays = line_fixture(n=3).adjacency_arrays()
        arrays["adj_latency_ms"][0] += 1.0  # one end of link 1-2 only
        with pytest.raises(TopologyError):
            ASTopology.from_adjacency_arrays(arrays)

    def test_load_from_arrays(self):
        original = line_fixture(n=5)
        loaded = load_topology(topology_arrays(original))
        assert list(loaded.links()) == list(original.links())

    def test_unversioned_arrays_rejected(self):
        with pytest.raises(TopologyError):
            load_topology(line_fixture(n=3).adjacency_arrays())

    def test_archive_is_an_array_file(self, tmp_path):
        original = line_fixture(n=4)
        path = str(tmp_path / "topo.arrays")
        save_topology(original, path)
        arrays = read_arrays(path, key="")
        assert set(arrays) == set(topology_arrays(original))
        assert not any(a.flags.writeable for a in arrays.values())
        with pytest.raises(TopologyError, match="another key"):
            read_arrays(path, key="other")

    def test_npz_archive_rejected(self, tmp_path):
        # The archive format before the array file.
        path = tmp_path / "topo.npz"
        np.savez_compressed(path, **topology_arrays(line_fixture(n=3)))
        with pytest.raises(TopologyError, match="not an array file"):
            load_topology(str(path))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(TopologyError):
            load_topology(str(tmp_path / "nope.arrays"))
