"""Tests for topology persistence and fixtures."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.datasets import (
    load_topology,
    read_arrays,
    save_topology,
    topology_arrays,
    write_arrays,
)
from repro.topology.generator import generate_internet_topology, small_scale_config
from repro.topology.graph import ASTopology

from .topology_fixtures import coo_arrays, line_fixture, star_fixture


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
            assert loaded.intra_latency(asn) == original.intra_latency(asn)
        assert np.array_equal(loaded.endnode_array(), original.endnode_array())
        for got, want in zip(loaded.csr_arrays(), original.csr_arrays()):
            assert np.array_equal(got, want)

    def test_roundtrip_keeps_neighbour_order(self, tmp_path):
        # Neighbours are listed in the order the generator connected
        # them, not sorted; the archive keeps each AS's adjacency as is.
        original = generate_internet_topology(small_scale_config(n_as=80), seed=5)
        path = str(tmp_path / "topo.arrays")
        save_topology(original, path)
        loaded = load_topology(path)
        assert any(
            original.neighbors(asn) != sorted(original.neighbors(asn))
            for asn in original.asns()
        )
        for asn in original.asns():
            assert loaded.neighbors(asn) == original.neighbors(asn)
        for got, want in zip(coo_arrays(loaded), coo_arrays(original)):
            assert np.array_equal(got, want)

    def test_asymmetric_adjacency_rejected(self):
        arrays = line_fixture(n=3).adjacency_arrays()
        arrays["adj_latency_ms"][0] += 1.0  # one end of link 1-2 only
        with pytest.raises(TopologyError):
            ASTopology(arrays)

    def test_load_from_arrays(self):
        original = line_fixture(n=5)
        loaded = load_topology(topology_arrays(original))
        for name, want in original.adjacency_arrays().items():
            assert np.array_equal(loaded.adjacency_arrays()[name], want), name

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

    def test_arrays_are_aligned_for_their_dtype(self, tmp_path):
        path = str(tmp_path / "mixed.arrays")
        mixed = {
            "flag": np.array([True, False, True]),
            "small": np.arange(5, dtype=np.int16),
            "ratio": np.ones(3, dtype=np.float32),
            **topology_arrays(line_fixture(n=3)),
        }
        write_arrays(path, mixed)
        arrays = read_arrays(path, key="")
        assert set(arrays) == set(mixed)
        for name, array in arrays.items():
            assert array.ctypes.data % array.dtype.alignment == 0, name
            assert np.array_equal(array, mixed[name]), name

    def test_npz_archive_rejected(self, tmp_path):
        # The archive format before the array file.
        path = tmp_path / "topo.npz"
        np.savez_compressed(path, **topology_arrays(line_fixture(n=3)))
        with pytest.raises(TopologyError, match="not an array file"):
            load_topology(str(path))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(TopologyError):
            load_topology(str(tmp_path / "nope.arrays"))
