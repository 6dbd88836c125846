"""Reproduces the paper's tail-provenance finding (§IV-B.2a) from traces.

"This long tail arises from a few queries originating from those ASs with
unusually long intra-AS response times ... the 18 queries with the longest
response times all originated from AS 23951, a small AS registered in
Indonesia with a one-way latency of more than 2.3 seconds."

We plant a known fraction of pathological stub ASs, run the full
simulation **with tracing on**, and attribute the response-time tail from
the :class:`~repro.obs.trace.QueryTrace` stream alone — the per-query
record carries the source AS, every replica contact, and the local-race
verdict, so the forensics no longer need the metrics collector.  A second,
fully pinned scenario regression-tests the other tail mechanism the trace
schema exists to expose: Algorithm 1 rehash chains that fall back to a
deputy AS, combined with a dead first-choice replica.
"""

import numpy as np
import pytest

from repro.bgp.allocation import AllocationConfig, generate_global_prefix_table
from repro.core.guid import GUID, NetworkAddress
from repro.core.resolver import DMapResolver
from repro.hashing.hashers import Sha256Hasher
from repro.hashing.rehash import GuidPlacer
from repro.obs import CollectingTracer
from repro.obs.export import classify_provenance, tail_provenance_table
from repro.topology.generator import TopologyConfig, generate_internet_topology
from repro.topology.latency import LatencyModel
from repro.topology.routing import Router
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.sim.simulation import DMapSimulation

from .failure_models import RouterFailureModel

#: One-way latency above which an AS counts as pathological (ms).
OUTLIER_THRESHOLD_MS = 150.0


@pytest.fixture(scope="module")
def outlier_world():
    config = TopologyConfig(
        n_as=250,
        total_endnodes=250_000,
        latency=LatencyModel(outlier_fraction=0.05),  # plant ~5% slow stubs
    )
    topology = generate_internet_topology(config, seed=21)
    table = generate_global_prefix_table(
        topology.asns(), AllocationConfig(prefixes_per_as=5), seed=21
    )
    router = Router(topology)
    tracer = CollectingTracer()
    sim = DMapSimulation(topology, table, k=5, router=router, tracer=tracer)
    workload = WorkloadGenerator(
        topology, WorkloadConfig(n_guids=300, n_lookups=4000, seed=21)
    ).generate()
    workload.apply_to_simulation(sim, table)
    sim.run()
    return topology, sim, tracer.traces


def outlier_asns(topology):
    return {
        asn
        for asn in topology.asns()
        if topology.intra_latency(asn) > OUTLIER_THRESHOLD_MS
    }


class TestTailProvenance:
    def test_outliers_exist(self, outlier_world):
        topology, _sim, _traces = outlier_world
        assert len(outlier_asns(topology)) >= 3

    def test_traces_mirror_metrics_records(self, outlier_world):
        _topology, sim, traces = outlier_world
        # One trace per completed lookup, agreeing with the collector on
        # both the outcome counts and every individual RTT.
        assert len(traces) == len(sim.metrics.records) + len(sim.metrics.failed)
        recorded = sorted(r.rtt_ms for r in sim.metrics.records)
        traced = sorted(t.rtt_ms for t in traces if t.success)
        assert np.allclose(recorded, traced)

    def test_worst_queries_originate_from_outlier_ases(self, outlier_world):
        topology, _sim, traces = outlier_world
        slow = outlier_asns(topology)
        # Queries *from* a pathological AS cannot be saved by replication:
        # every one of the very worst queries that exceeds the outlier
        # threshold twice over must have a slow source (nothing else in
        # this world can add seconds).
        extreme = [t for t in traces if t.rtt_ms > 2 * OUTLIER_THRESHOLD_MS]
        assert extreme, "expected some extreme-tail queries"
        blamed = sum(1 for t in extreme if t.source_asn in slow)
        assert blamed / len(extreme) > 0.9

    def test_tail_table_names_the_culprit_ases(self, outlier_world):
        topology, _sim, traces = outlier_world
        slow = outlier_asns(topology)
        table = tail_provenance_table(traces, worst=18)
        # The paper's anecdote, reproduced as a report: the table of the
        # 18 worst queries is dominated by the planted slow sources.
        named = sum(
            1
            for line in table.splitlines()
            if any(f" {asn} " in f" {line} " for asn in slow)
        )
        assert named >= 16

    def test_median_unaffected_by_outliers(self, outlier_world):
        topology, _sim, traces = outlier_world
        slow = outlier_asns(topology)
        clean_rtts = [
            t.rtt_ms for t in traces if t.success and t.source_asn not in slow
        ]
        all_rtts = [t.rtt_ms for t in traces if t.success]
        # The bulk of the distribution is not moved by the planted tail.
        assert np.median(all_rtts) == pytest.approx(
            np.median(clean_rtts), rel=0.1
        )

    def test_replication_does_not_rescue_slow_sources(self, outlier_world):
        topology, _sim, traces = outlier_world
        slow = outlier_asns(topology)
        from_slow = [t for t in traces if t.source_asn in slow]
        if not from_slow:
            pytest.skip("no query happened to originate from a planted outlier")
        # Each such query pays at least its own intra-AS round trip.
        for t in from_slow:
            floor = 2.0 * topology.intra_latency(t.source_asn)
            assert t.rtt_ms >= floor - 1e-6


class TestDeputyFallbackRegression:
    """Pinned scenario: rehash-exhausted deputy chains + a dead replica.

    Constants below were found by searching table seeds during
    development and are pinned so the exact Algorithm 1 behaviour —
    every chain needing both rehashes, four of five falling back to the
    deputy — stays locked in.  A 2% announced ratio makes hash misses
    near-certain; a placer with ``max_rehashes=2`` forces the deputy path.
    """

    TABLE_SEED = 1
    GUID_NAME = "deputy-regression-0"
    EXPECTED_REPLICA_SET = (29, 32, 29, 3, 29)
    EXPECTED_DEPTHS = (2, 2, 2, 2, 2)
    EXPECTED_DEPUTY_CHAINS = 4

    @pytest.fixture()
    def sparse_resolver(self, topology, router, asns):
        table = generate_global_prefix_table(
            asns,
            AllocationConfig(target_ratio=0.02, prefixes_per_as=1),
            seed=self.TABLE_SEED,
        )
        tracer = CollectingTracer()
        placer = GuidPlacer(
            Sha256Hasher(5, address_bits=table.bits), table, max_rehashes=2
        )
        resolver = DMapResolver(table, router, placer=placer, tracer=tracer)
        return resolver, tracer

    def test_pinned_multi_attempt_deputy_chain(self, sparse_resolver, asns):
        resolver, tracer = sparse_resolver
        guid = GUID.from_name(self.GUID_NAME)
        resolver.insert(guid, [NetworkAddress(1)], int(asns[0]))
        source = int(asns[5])

        # Down the walk's first choice so the trace shows the full
        # mechanism: timeout at the nearest replica, rescue by the next.
        hosting = [r.asn for r in resolver.placer.resolve_all(guid)]
        first_choice = resolver.selector.order_candidates(source, hosting)[0]
        model = RouterFailureModel([first_choice])
        tracer.clear()
        result = resolver.lookup(guid, source, model, time=0.0)

        (trace,) = tracer.traces
        assert trace.replica_set == self.EXPECTED_REPLICA_SET
        assert trace.rehash_depths == self.EXPECTED_DEPTHS
        assert trace.deputy_chains == self.EXPECTED_DEPUTY_CHAINS
        assert trace.attempts[0].asn == first_choice
        assert trace.attempts[0].outcome == "timeout"
        assert trace.attempts[-1].outcome == "hit"
        assert trace.success
        assert trace.served_by == trace.attempts[-1].asn
        assert trace.rtt_ms == result.rtt_ms
        assert classify_provenance(trace) == "timeout-walk"
        # The timeout attempt is charged the adaptive timer, never less
        # than the configured floor.
        assert trace.attempts[0].cost_ms >= resolver.timeout_ms - 1e-9
