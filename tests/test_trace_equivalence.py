"""Trace-level equivalence: the scalar walk vs the batched engine.

PR 3 proved the two engines agree on lookup *results* (RTT, server,
attempt counts).  The tracing layer turns that into a much stronger
oracle: both engines must emit the same ordered stream of
:class:`~repro.obs.trace.QueryTrace` records — every placement chain,
every issued attempt with its outcome and cost, the local-race verdict —
and the canonical JSONL serialization of the two streams must be
*byte-identical*.  Any divergence in internal decision-making that the
end-result comparison would mask (an attempt charged to the wrong
replica, a swapped outcome, a local race scored differently) fails here.
"""

from __future__ import annotations

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
from repro.hashing.asnum_placer import ASNumberPlacer, WeightedASPlacer
from repro.obs import CollectingTracer
from repro.obs.export import dumps_traces, read_traces, write_traces
from repro.topology import routing

from .test_fastpath import from_resolver

N_GUIDS = 40
N_LOOKUPS = 150


class _Model(FailureModel):
    """Deterministic per-(AS, GUID) availability — a pure function."""

    def __init__(self, down_asns=()):
        self._down = frozenset(int(a) for a in down_asns)

    def lookup_outcome(self, asn, guid):
        v = (asn * 2654435761 + int(guid) * 40503) % 10
        if v < 2:
            return OUTCOME_TIMEOUT
        if v < 5:
            return OUTCOME_MISSING
        return OUTCOME_HIT

    def is_down(self, asn):
        return asn in self._down


def _run_both(base_table, router, asns, *, k=5, local=True, placer=None,
              model=None, seed=101, n_jobs=1):
    """One deployment, the same lookups through both engines.

    Returns ``(scalar_traces, fastpath_traces)`` — each engine writes
    into its own collector so the streams stay attributable.
    """
    rng = np.random.default_rng(seed)
    scalar_tracer = CollectingTracer()
    resolver = DMapResolver(
        base_table, router, k=k, local_replica=local, placer=placer,
        tracer=scalar_tracer,
    )
    values = rng.integers(0, np.iinfo(np.uint64).max, size=N_GUIDS, dtype=np.uint64)
    guids = [GUID(int(v)) for v in values]
    write_src = rng.choice(asns, size=N_GUIDS)
    local_asn = {}
    for g, src in zip(guids, write_src):
        resolver.insert(g, [NetworkAddress(int(rng.integers(0, 2**32)))], int(src))
        local_asn[g] = int(src)

    engine = from_resolver(resolver)
    fast_tracer = CollectingTracer()
    engine.tracer = fast_tracer
    batch = engine.index_guids(guids, [local_asn[g] for g in guids])
    gidx = rng.integers(0, N_GUIDS, size=N_LOOKUPS)
    srcs = rng.choice(asns, size=N_LOOKUPS)
    times = rng.uniform(0.0, 1000.0, size=N_LOOKUPS)

    for i in range(N_LOOKUPS):
        try:
            resolver.lookup(
                guids[int(gidx[i])], int(srcs[i]), model, time=float(times[i])
            )
        except LookupFailedError:
            pass
    engine.lookup_batch(
        batch, gidx, srcs, failure_model=model, n_jobs=n_jobs, issued_at=times
    )
    return scalar_tracer.traces, fast_tracer.traces


def _assert_streams_byte_identical(scalar_traces, fast_traces):
    assert len(scalar_traces) == N_LOOKUPS == len(fast_traces)
    scalar_doc = dumps_traces(scalar_traces)
    fast_doc = dumps_traces(fast_traces)
    if scalar_doc != fast_doc:  # pinpoint the first diverging record
        for a, b in zip(scalar_doc.splitlines(), fast_doc.splitlines()):
            assert a == b
    assert scalar_doc == fast_doc


class TestConvergedEquivalence:
    """Failure-free lane: every replica answers."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("local", [True, False])
    def test_address_placement(self, base_table, router, asns, k, local):
        scalar, fast = _run_both(
            base_table, router, asns, k=k, local=local, seed=100 + k
        )
        _assert_streams_byte_identical(scalar, fast)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_asnum_placement(self, base_table, router, asns, k):
        placer = ASNumberPlacer(asns, k=k)
        scalar, fast = _run_both(
            base_table, router, asns, k=k, placer=placer, seed=300 + k
        )
        _assert_streams_byte_identical(scalar, fast)

    def test_weighted_placement(self, base_table, router, asns):
        weights = {
            asn: w for asn, w in zip(asns, np.linspace(1.0, 3.0, num=len(asns)))
        }
        placer = WeightedASPlacer(weights, k=3)
        scalar, fast = _run_both(
            base_table, router, asns, k=3, placer=placer, seed=404
        )
        _assert_streams_byte_identical(scalar, fast)


class TestAvailabilityEquivalence:
    """Walk lane: misses, timeouts, dead queriers, failures."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("local", [True, False])
    def test_mixed_outcomes(self, base_table, router, asns, k, local):
        scalar, fast = _run_both(
            base_table, router, asns, k=k, local=local, model=_Model(),
            seed=200 + k,
        )
        _assert_streams_byte_identical(scalar, fast)

    def test_dead_querier_local_timeout(self, base_table, router, asns):
        scalar, fast = _run_both(
            base_table, router, asns, model=_Model(down_asns=asns[:40]),
            seed=505,
        )
        _assert_streams_byte_identical(scalar, fast)
        timed_out = [
            t for t in scalar if t.local_launched and t.local_outcome == "timeout"
        ]
        assert timed_out, "expected some down-querier local timeouts"

    def test_total_failure_traces(self, base_table, router, asns):
        class _AllDead(_Model):
            def lookup_outcome(self, asn, guid):
                return OUTCOME_TIMEOUT

        dead = _AllDead()  # every replica times out: all walks fail
        scalar, fast = _run_both(
            base_table, router, asns, local=False, model=dead, seed=606
        )
        _assert_streams_byte_identical(scalar, fast)
        assert all(not t.success for t in scalar)
        assert all(t.failure_cause == "exhausted" for t in scalar)
        assert all(
            all(a.outcome == OUTCOME_TIMEOUT for a in t.attempts) for t in scalar
        )


class TestTraceFileRoundTrip:
    def test_jsonl_file_round_trips_and_stays_identical(
        self, base_table, router, asns, tmp_path
    ):
        scalar, fast = _run_both(base_table, router, asns, seed=808)
        path = tmp_path / "traces.jsonl"
        write_traces(str(path), scalar)
        loaded = read_traces(str(path))
        assert dumps_traces(loaded) == dumps_traces(fast)
        assert loaded == sorted(
            scalar,
            key=lambda t: (t.k, t.issued_at, t.guid_value, t.source_asn),
        )

    def test_sharded_traces_match_serial(
        self, base_table, router, asns, monkeypatch
    ):
        # Small row blocks, so that two workers really share the rows.
        monkeypatch.setattr(routing, "ROW_BLOCK", 2)
        model = _Model(down_asns=asns[:10])
        scalar, serial = _run_both(base_table, router, asns, model=model, seed=909)
        _, sharded = _run_both(
            base_table, router, asns, model=model, seed=909, n_jobs=2
        )
        assert dumps_traces(sharded) == dumps_traces(serial)
        _assert_streams_byte_identical(scalar, sharded)
