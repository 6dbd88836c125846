"""Tests for the workload generator and event streams."""

import hashlib

import numpy as np
import pytest

from repro.core.resolver import (
    DMapResolver,
    FailureModel,
    OUTCOME_HIT,
    OUTCOME_MISSING,
)
from repro.errors import WorkloadError
from repro.sim.failures import ChurnFailureModel
from repro.workload.generator import (
    EventKind,
    Workload,
    WorkloadConfig,
    WorkloadGenerator,
)


@pytest.fixture
def small_workload(topology):
    cfg = WorkloadConfig(n_guids=50, n_lookups=300, seed=3)
    return WorkloadGenerator(topology, cfg).generate()


class TestGeneration:
    def test_event_counts(self, small_workload):
        inserts = [e for e in small_workload.events if e.kind is EventKind.INSERT]
        lookups = [e for e in small_workload.events if e.kind is EventKind.LOOKUP]
        assert len(inserts) == 50
        assert len(lookups) == 300

    def test_events_time_sorted(self, small_workload):
        times = [e.time_ms for e in small_workload.events]
        assert times == sorted(times)

    def test_insert_phase_precedes_lookups(self, small_workload):
        last_insert = max(
            e.time_ms for e in small_workload.events if e.kind is EventKind.INSERT
        )
        first_lookup = min(
            e.time_ms for e in small_workload.events if e.kind is EventKind.LOOKUP
        )
        assert last_insert < first_lookup

    def test_lookups_target_inserted_guids(self, small_workload):
        guids = set(small_workload.home_asn)
        for event in small_workload.events:
            assert event.guid in guids

    def test_popular_ranks_queried_more(self, topology):
        cfg = WorkloadConfig(n_guids=200, n_lookups=5000, seed=1)
        workload = WorkloadGenerator(topology, cfg).generate()
        guids = workload.guids
        counts = {g: 0 for g in guids}
        for event in workload.events:
            if event.kind is EventKind.LOOKUP:
                counts[event.guid] += 1
        top_half = sum(counts[g] for g in guids[:100])
        bottom_half = sum(counts[g] for g in guids[100:])
        assert top_half > bottom_half

    def test_sources_in_topology(self, small_workload, topology):
        asns = set(topology.asns())
        for event in small_workload.events:
            assert event.source_asn in asns

    def test_deterministic(self, topology):
        cfg = WorkloadConfig(n_guids=30, n_lookups=100, seed=9)
        a = WorkloadGenerator(topology, cfg).generate()
        b = WorkloadGenerator(topology, cfg).generate()
        assert a.events == b.events

    def test_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(n_guids=0).validate()
        with pytest.raises(WorkloadError):
            WorkloadConfig(n_lookups=-1).validate()
        with pytest.raises(WorkloadError):
            WorkloadConfig(insert_window_ms=-1).validate()

    def test_zero_lookups_allowed(self, topology):
        cfg = WorkloadConfig(n_guids=10, n_lookups=0, seed=0)
        workload = WorkloadGenerator(topology, cfg).generate()
        assert all(e.kind is EventKind.INSERT for e in workload.events)

    # SHA-256 of the event view and the home map, computed with the
    # generator that built one event object per draw: the arrays must
    # give exactly the same stream, from the same draws in the same order.
    @pytest.mark.parametrize(
        "overrides, digest",
        [
            (
                {},
                "60787843e6f8894af06e6cf0686372adfcfcbdcce640cf93161e9f6d43b47fac",
            ),
            (
                {"n_guids": 50, "n_lookups": 0},
                "86406b830c26735ea99b0e7bec56051beff2c1d7fb3faf65b03120624c97f5ed",
            ),
            (
                {"gap_ms": 0.0},
                "ff80c049504dc7462d7283c85751167e63d06de2e661af74f67fd43ad0a7b9fe",
            ),
            (
                {"insert_window_ms": 0.0, "gap_ms": 0.0},
                "e5ed9d40ee4c184e5667ad285d1ea3dd2dd0232c9991468cb51c410f27ac3bb8",
            ),
        ],
        ids=["base", "no-lookups", "no-gap", "no-windows"],
    )
    def test_event_view_pinned(self, topology, overrides, digest):
        base = {"n_guids": 500, "n_lookups": 5000, "seed": 3}
        cfg = WorkloadConfig(**{**base, **overrides})
        workload = WorkloadGenerator(topology, cfg).generate()
        h = hashlib.sha256()
        for e in workload.events:
            line = f"{e.kind.value} {e.time_ms!r} {e.guid.value} {e.source_asn}\n"
            h.update(line.encode())
        for guid, asn in sorted(workload.home_asn.items()):
            h.update(f"{guid.value} {asn}\n".encode())
        assert h.hexdigest() == digest

    def test_arrays_are_the_stream(self, small_workload):
        a = small_workload.lookup_arrays()
        assert a is small_workload.arrays
        assert small_workload.guids == list(small_workload.home_asn)
        lookups = [e for e in small_workload.events if e.kind is EventKind.LOOKUP]
        assert [a.guids[i] for i in a.guid_idx] == [e.guid for e in lookups]
        assert a.sources.tolist() == [e.source_asn for e in lookups]
        assert a.issued_at.tolist() == [e.time_ms for e in lookups]


class TestExecution:
    def test_run_through_resolver(self, small_workload, base_table, router):
        resolver = DMapResolver(base_table, router, k=3)
        rtts = small_workload.run_through_resolver(resolver, base_table)
        assert len(rtts) == 300
        assert all(r > 0 for r in rtts)

    def test_grouped_order_is_source_then_time(
        self, small_workload, base_table, router
    ):
        # Failure-free RTTs do not depend on the order, so the grouped run
        # returns the in-order RTTs permuted by a stable sort of the
        # lookups by (source AS, issue time).
        resolver = DMapResolver(base_table, router, k=3)
        in_order = []
        for event in small_workload.events:
            if event.kind is EventKind.LOOKUP:
                in_order.append(resolver.lookup(event.guid, event.source_asn).rtt_ms)
            else:
                locator = base_table.representative_address(event.source_asn)
                resolver.insert(event.guid, [locator], event.source_asn)
        grouped = small_workload.run_through_resolver(
            DMapResolver(base_table, router, k=3), base_table
        )
        lookups = [e for e in small_workload.events if e.kind is EventKind.LOOKUP]
        order = sorted(
            range(len(lookups)),
            key=lambda j: (lookups[j].source_asn, lookups[j].time_ms),
        )
        assert grouped == [in_order[j] for j in order]
        assert grouped != in_order

    def test_locator_matches_home(self, small_workload, base_table):
        guid = next(iter(small_workload.home_asn))
        locator = small_workload.locator_for(guid, base_table)
        assert base_table.owner_asn(locator) == small_workload.home_asn[guid]

    def test_retry_on_total_failure(self, small_workload, base_table, router):
        # A model that fails everything a bounded number of times: each
        # failed round's time must be carried into the final RTT.
        resolver = DMapResolver(base_table, router, k=2)

        class Flaky(FailureModel):
            calls = 0

            def lookup_outcome(self, asn, guid):
                self.calls += 1
                return OUTCOME_MISSING if self.calls <= 2 else OUTCOME_HIT

        # Every insert, then the first lookup alone.
        a = small_workload.arrays
        tiny = Workload(
            small_workload.config,
            a._replace(
                guid_idx=a.guid_idx[:1],
                sources=a.sources[:1],
                issued_at=a.issued_at[:1],
            ),
            small_workload.insert_times,
        )
        rtts_flaky = tiny.run_through_resolver(resolver, base_table, Flaky())
        rtts_clean = tiny.run_through_resolver(resolver, base_table)
        assert rtts_flaky[0] >= rtts_clean[0]

    def test_attempt_counts_measure_replicas_contacted(
        self, small_workload, base_table, router
    ):
        # Every replica contact consults the model exactly once, including
        # contacts in failed rounds that the retry loop repeats.
        resolver = DMapResolver(base_table, router, k=3)
        probed = []

        class Recording(ChurnFailureModel):
            def lookup_outcome(self, asn, guid):
                probed.append(asn)
                return super().lookup_outcome(asn, guid)

        counts = []
        rtts = small_workload.run_through_resolver(
            resolver,
            base_table,
            Recording(0.4, seed=3),
            attempt_counts=counts,
        )
        assert len(counts) == len(rtts)
        assert sum(counts) == len(probed)
        assert max(counts) > 3  # some lookup needed a second round

    def test_retry_gives_up_eventually(self, small_workload, base_table, router):
        resolver = DMapResolver(base_table, router, k=2, local_replica=False)
        with pytest.raises(WorkloadError, match="kept failing"):
            small_workload.run_through_resolver(
                resolver, base_table, ChurnFailureModel(1.0), max_retry_rounds=3
            )

    def test_apply_to_simulation(self, small_workload, topology, base_table, router):
        from repro.sim.simulation import DMapSimulation

        sim = DMapSimulation(topology, base_table, k=3, router=router)
        small_workload.apply_to_simulation(sim, base_table)
        sim.run()
        assert len(sim.metrics.records) == 300
        assert len(sim.insert_records) == 50
