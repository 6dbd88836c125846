"""Tests for the synthetic Internet topology generator."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.topology.generator import (
    PAPER_N_AS,
    PAPER_N_LINKS,
    TopologyConfig,
    generate_internet_topology,
    small_scale_config,
)
from repro.topology.graph import ASTier

from .topology_fixtures import coo_arrays


class TestConfig:
    def test_default_targets_paper_scale(self):
        cfg = TopologyConfig()
        assert cfg.n_as == PAPER_N_AS
        assert cfg.resolved_target_links() == PAPER_N_LINKS

    def test_scaled_link_target(self):
        cfg = TopologyConfig(n_as=2642, total_endnodes=10_000)
        ratio = cfg.resolved_target_links() / 2642
        assert ratio == pytest.approx(PAPER_N_LINKS / PAPER_N_AS, rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(n_as=2).validate()
        with pytest.raises(ConfigurationError):
            TopologyConfig(transit_fraction=0.0).validate()
        with pytest.raises(ConfigurationError):
            TopologyConfig(total_endnodes=5).validate()


class TestGeneratedTopology:
    @pytest.fixture(scope="class")
    def topo(self):
        return generate_internet_topology(small_scale_config(n_as=250), seed=5)

    def test_connected(self, topo):
        topo.validate()  # raises if disconnected

    def test_size_and_links(self, topo):
        assert len(topo) == 250
        target = TopologyConfig(n_as=250, total_endnodes=250).resolved_target_links()
        assert abs(topo.n_links() - target) <= max(10, target // 10)

    def test_tier_structure(self, topo):
        tiers = {t: 0 for t in ASTier}
        for tier in topo.adjacency_arrays()["tier"].tolist():
            tiers[ASTier(tier)] += 1
        assert tiers[ASTier.TIER1] >= 4
        assert tiers[ASTier.STUB] > tiers[ASTier.TRANSIT] > tiers[ASTier.TIER1]

    def test_tier1_full_mesh(self, topo):
        arrays = topo.adjacency_arrays()
        t1 = arrays["asn"][arrays["tier"] == ASTier.TIER1].tolist()
        for i, a in enumerate(t1):
            for b in t1[i + 1 :]:
                assert b in topo.neighbors(a)

    def test_heavy_tailed_degrees(self, topo):
        degrees = np.array([topo.degree(a) for a in topo.asns()])
        # Providers accumulate far more links than the median stub; the
        # contrast grows with n, so keep the bound loose at test scale.
        assert degrees.max() > 4 * np.median(degrees)
        top_decile_share = np.sort(degrees)[-25:].sum() / degrees.sum()
        assert top_decile_share > 0.25

    def test_every_as_has_endnodes(self, topo):
        assert (topo.endnode_array() >= 1).all()

    def test_populations_concentrated_in_stubs(self, topo):
        arrays = topo.adjacency_arrays()
        stub_pop = arrays["endnodes"][arrays["tier"] == ASTier.STUB].sum()
        total = arrays["endnodes"].sum()
        assert stub_pop / total > 0.8

    def test_intra_latencies_positive_with_heavy_tail(self, topo):
        intra = topo.intra_latency_array()
        assert (intra > 0).all()
        # The generator plants pathological stub ASs (AS-23951-like).
        assert np.median(intra) < 10.0

    def test_deterministic(self):
        a = generate_internet_topology(small_scale_config(n_as=100), seed=9)
        b = generate_internet_topology(small_scale_config(n_as=100), seed=9)
        for name, want in a.adjacency_arrays().items():
            assert np.array_equal(b.adjacency_arrays()[name], want), name

    def test_seeds_differ(self):
        a = generate_internet_topology(small_scale_config(n_as=100), seed=1)
        b = generate_internet_topology(small_scale_config(n_as=100), seed=2)
        # The canonical CSR structure (indptr, indices) is the link set.
        (ptr_a, idx_a, _), (ptr_b, idx_b, _) = a.csr_arrays(), b.csr_arrays()
        assert not (np.array_equal(ptr_a, ptr_b) and np.array_equal(idx_a, idx_b))

    def test_link_set_pinned(self):
        # Digest of the seed-0, 400-AS topology's CSR ingredients: pins
        # the RNG stream and the link set against changes to how the
        # generator counts links while it adds peering edges.
        topo = generate_internet_topology(small_scale_config(n_as=400), seed=0)
        digest = hashlib.sha256()
        for array in coo_arrays(topo):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == (
            "145c356b0e64ed1c7b6c8e9b7c0c64caca2915f7934446a5f2125df8c175b95f"
        )
        assert topo.n_links() == 1366
