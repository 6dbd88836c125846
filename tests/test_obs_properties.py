"""Seeded property tests for the observability layer (stdlib RNG only).

Each property is checked over many randomized lookups driven by
``random.Random`` (the determinism linter bans stdlib random in
``src/repro`` but tests are free to use it — no new dependencies):

* a global-served trace's attempt list is exactly the failed attempts
  plus the serving hit, and the attempt costs sum to the reported RTT
  (1e-9 relative);
* a local win's RTT is the local branch's completion time;
* replaying a traced GUID through the batched placement kernel
  reproduces the trace's replica set chain for chain;
* JSONL serialization round-trips traces exactly;
* the counter aggregator's totals are consistent with the stream.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core.guid import GUID, NetworkAddress
from repro.core.resolver import (
    OUTCOME_HIT,
    OUTCOME_MISSING,
    OUTCOME_TIMEOUT,
    DMapResolver,
    FailureModel,
)
from repro.errors import LookupFailedError
from repro.fastpath.placement import batch_hosting_asns, batch_resolutions
from repro.obs import CollectingTracer, aggregate_traces
from repro.obs.export import dumps_trace, trace_from_dict, trace_to_dict

N_ROUNDS = 200


class _Mixed(FailureModel):
    """Deterministic per-(AS, GUID) mix of all three outcomes."""

    def lookup_outcome(self, asn, guid):
        v = (asn * 48271 + int(guid) * 16807) % 8
        if v == 0:
            return OUTCOME_TIMEOUT
        if v < 3:
            return OUTCOME_MISSING
        return OUTCOME_HIT


@pytest.fixture(scope="module")
def traced_world(base_table, router, asns):
    """A resolver with mixed-outcome lookups and its collected traces."""
    rng = random.Random(0xD7A9)
    tracer = CollectingTracer()
    resolver = DMapResolver(base_table, router, k=5, tracer=tracer)
    guids = [GUID(rng.getrandbits(64)) for _ in range(30)]
    homes = {}
    for g in guids:
        home = rng.choice(asns)
        resolver.insert(g, [NetworkAddress(rng.getrandbits(32))], home)
        homes[g] = home
    for i in range(N_ROUNDS):
        g = rng.choice(guids)
        # Every 4th lookup originates at the GUID's attachment AS so the
        # §III-C local-replica race actually has a copy to win with.
        src = homes[g] if i % 4 == 0 else rng.choice(asns)
        try:
            resolver.lookup(
                g,
                src,
                _Mixed(),
                time=float(rng.randrange(10**6)),
            )
        except LookupFailedError:
            pass
    assert len(tracer.traces) == N_ROUNDS
    return resolver, tracer.traces


class TestAttemptAccounting:
    def test_attempt_count_is_failed_plus_serving_hit(self, traced_world):
        _, traces = traced_world
        for t in traces:
            if t.success and not t.used_local:
                # The walk ends on its first hit: everything before it failed.
                assert len(t.attempts) == t.failed_attempts + 1
                assert t.attempts[-1].outcome == OUTCOME_HIT
            else:
                # Local wins and failures leave only non-hit observations
                # in the walk (a hit attempt ends the walk globally).
                assert all(a.outcome != OUTCOME_HIT for a in t.attempts) or (
                    t.used_local and t.attempts[-1].outcome == OUTCOME_HIT
                )

    def test_global_costs_sum_to_rtt(self, traced_world):
        _, traces = traced_world
        checked = 0
        for t in traces:
            if t.success and not t.used_local:
                total = sum(a.cost_ms for a in t.attempts)
                assert total == pytest.approx(t.rtt_ms, rel=1e-9)
                checked += 1
        assert checked > 0

    def test_local_win_rtt_is_local_end(self, traced_world):
        _, traces = traced_world
        wins = [t for t in traces if t.used_local]
        assert wins, "expected some local-race wins"
        for t in wins:
            assert t.local_launched
            assert t.rtt_ms == t.local_end_ms
            assert t.served_by == t.source_asn

    def test_failure_rtt_covers_both_branches(self, traced_world):
        _, traces = traced_world
        failures = [t for t in traces if not t.success]
        for t in failures:
            walk_cost = sum(a.cost_ms for a in t.attempts)
            floor = max(walk_cost, t.local_end_ms or 0.0)
            assert t.rtt_ms == pytest.approx(floor, rel=1e-9)


class TestPlacementReplay:
    def test_batch_placement_reproduces_replica_sets(self, traced_world):
        resolver, traces = traced_world
        unique = {t.guid_value: t for t in traces}
        values = sorted(unique)
        rows = batch_hosting_asns(resolver.placer, values)
        for row, value in zip(rows, values):
            assert tuple(int(a) for a in row) == unique[value].replica_set

    def test_batch_resolutions_reproduce_provenance(self, traced_world):
        resolver, traces = traced_world
        unique = {t.guid_value: t for t in traces}
        values = sorted(unique)
        asns_m, attempts_m, deputy_m = batch_resolutions(resolver.placer, values)
        for i, value in enumerate(values):
            placement = unique[value].placement
            assert tuple(int(a) for a in asns_m[i]) == tuple(
                r.asn for r in placement
            )
            assert tuple(int(a) for a in attempts_m[i]) == tuple(
                r.hash_attempts for r in placement
            )
            assert tuple(bool(d) for d in deputy_m[i]) == tuple(
                r.via_deputy for r in placement
            )


class TestSerialization:
    def test_round_trip_is_exact(self, traced_world):
        _, traces = traced_world
        for t in traces:
            line = dumps_trace(t)
            back = trace_from_dict(json.loads(line))
            assert back == t
            assert dumps_trace(back) == line

    def test_dict_form_is_canonical(self, traced_world):
        _, traces = traced_world
        t = traces[0]
        data = trace_to_dict(t)
        assert data["guid"] == t.guid_value
        assert len(data["placement"]) == t.k
        assert data["success"] == t.success


class TestAggregation:
    def test_counter_totals_match_stream(self, traced_world):
        _, traces = traced_world
        report = aggregate_traces(traces).report()

        def total(name):
            return sum(report[name]["values"].values())

        assert total("lookups_total") == len(traces)
        assert total("lookups_failed") == sum(1 for t in traces if not t.success)
        assert total("local_race_wins") == sum(1 for t in traces if t.used_local)
        assert total("lookup_attempts") == sum(len(t.attempts) for t in traces)
        by_outcome = report["lookup_attempts"]["values"]
        for outcome in by_outcome:
            assert by_outcome[outcome] == sum(
                1 for t in traces for a in t.attempts if a.outcome == outcome
            )
        served = report["served_queries"]["values"]
        assert sum(served.values()) == sum(1 for t in traces if t.success)
        hist = report["rtt_ms"]
        assert hist["count"] == sum(1 for t in traces if t.success)
