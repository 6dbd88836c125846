"""Tests for population-weighted source sampling."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.topology.graph import ASTopology
from repro.workload.sources import SourceSampler

from .topology_fixtures import layout, linked


def weighted_topology():
    return linked([(1, 2, 1.0), (2, 3, 1.0)], [1, 2, 3], endnodes=[800, 150, 50])


class TestSampler:
    def test_probabilities_proportional_to_endnodes(self):
        # The draws are numpy's choice weighted by endnode_array().
        topo = weighted_topology()
        populations = topo.endnode_array()
        assert populations.tolist() == [800, 150, 50]
        want = np.random.default_rng(3).choice(
            topo.asns(), size=500, p=populations / populations.sum()
        )
        got = SourceSampler(topo, np.random.default_rng(3)).sample(500)
        assert got.tolist() == want.tolist()

    def test_empirical_frequencies(self):
        sampler = SourceSampler(weighted_topology(), np.random.default_rng(0))
        draws = sampler.sample(50_000)
        freq = {asn: (draws == asn).mean() for asn in (1, 2, 3)}
        assert freq[1] == pytest.approx(0.8, abs=0.01)
        assert freq[2] == pytest.approx(0.15, abs=0.01)
        assert freq[3] == pytest.approx(0.05, abs=0.01)

    def test_sample_one(self):
        sampler = SourceSampler(weighted_topology(), np.random.default_rng(0))
        assert sampler.sample_one() in (1, 2, 3)

    def test_deterministic(self):
        a = SourceSampler(weighted_topology(), np.random.default_rng(5)).sample(20)
        b = SourceSampler(weighted_topology(), np.random.default_rng(5)).sample(20)
        assert (a == b).all()

    def test_negative_size_rejected(self):
        sampler = SourceSampler(weighted_topology())
        with pytest.raises(WorkloadError):
            sampler.sample(-1)

    def test_zero_population_rejected(self):
        topo = ASTopology(layout({1: []}, endnodes=0))
        with pytest.raises(WorkloadError):
            SourceSampler(topo)

    def test_generated_topology_bias(self, topology):
        # On the generated graph, populous ASs must dominate the samples.
        sampler = SourceSampler(topology, np.random.default_rng(2))
        draws = sampler.sample(20_000)
        populations = topology.endnode_array()
        top_as = topology.asns()[int(np.argmax(populations))]
        expected = populations.max() / populations.sum()
        assert (draws == top_as).mean() == pytest.approx(expected, abs=0.02)
