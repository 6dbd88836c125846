"""Exact-equivalence tests: :mod:`repro.fastpath` vs the scalar oracle.

The batched engine promises *bit-identical* results to
:class:`~repro.core.resolver.DMapResolver` (the ISSUE floor is 1e-9
relative RTT; we assert plain ``==`` which is stronger).  Every test
builds a converged deployment — all writes precede all lookups — because
that is the regime the engine models; interleaved streams are covered by
the rejection tests.
"""

from __future__ import annotations

import os

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
from repro.errors import ConfigurationError, LookupFailedError, WorkerError
from repro.fastpath import (
    FastpathEngine,
    batch_hosting_asns,
    placement,
)
from repro.fastpath.engine import WALK_ROWS
from repro.fastpath.placement import batch_resolutions
from repro.hashing.asnum_placer import ASNumberPlacer, WeightedASPlacer
from repro.hashing.hashers import FastHasher, HashFamily, Sha256Hasher
from repro.hashing.rehash import GuidPlacer
from repro.obs.export import dumps_traces
from repro.obs.trace import CollectingTracer
from repro.sim.failures import ChurnFailureModel
from repro.topology import routing
from repro.topology.routing import Router
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

from .failure_models import RouterFailureModel

N_GUIDS = 40
N_LOOKUPS = 150


# ----------------------------------------------------------------------
# Deployment helpers
# ----------------------------------------------------------------------
def from_resolver(resolver) -> FastpathEngine:
    """An engine sharing a resolver's exact configuration."""
    return FastpathEngine(
        resolver.table,
        resolver.router,
        selection_policy=resolver.selector.policy,
        local_replica=resolver.local_replica,
        timeout_ms=resolver.timeout_ms,
        placer=resolver.placer,
        tracer=resolver.tracer,
    )


def _deploy(base_table, router, asns, *, k=5, policy="latency", local=True,
            placer=None, seed=101):
    """A converged deployment plus an aligned query stream.

    Returns ``(resolver, engine, batch, guid_idx, sources, guids)``.
    Roughly a quarter of the GUIDs get an update from a new source, so
    the local copy has moved for some of them.
    """
    rng = np.random.default_rng(seed)
    resolver = DMapResolver(
        base_table,
        router,
        k=k,
        selection_policy=policy,
        local_replica=local,
        placer=placer,
    )
    values = rng.integers(0, np.iinfo(np.uint64).max, size=N_GUIDS, dtype=np.uint64)
    guids = [GUID(int(v)) for v in values]
    write_src = rng.choice(asns, size=N_GUIDS)
    local_asn = {}
    for g, src in zip(guids, write_src):
        loc = NetworkAddress(int(rng.integers(0, 2**32)))
        resolver.insert(g, [loc], int(src))
        local_asn[g] = int(src)
    for i in rng.choice(N_GUIDS, size=N_GUIDS // 4, replace=False):
        src = int(rng.choice(asns))
        resolver.update(guids[i], [NetworkAddress(int(rng.integers(0, 2**32)))], src)
        local_asn[guids[i]] = src

    engine = from_resolver(resolver)
    batch = engine.index_guids(guids, [local_asn[g] for g in guids])
    guid_idx = rng.integers(0, N_GUIDS, size=N_LOOKUPS)
    sources = rng.choice(asns, size=N_LOOKUPS)
    return resolver, engine, batch, guid_idx, sources, guids


def _assert_lookup_parity(resolver, result, guids, guid_idx, sources,
                          failure_model=None):
    """Row-by-row comparison against the scalar walk (exact equality)."""
    for i in range(len(guid_idx)):
        g, src = guids[int(guid_idx[i])], int(sources[i])
        try:
            scalar = resolver.lookup(g, src, failure_model)
        except LookupFailedError as exc:
            assert not result.success[i]
            assert result.served_by[i] == -1
            assert result.rtt_ms[i] == exc.elapsed_ms
            assert result.attempts[i] == exc.attempts
            continue
        assert result.success[i]
        assert result.rtt_ms[i] == scalar.rtt_ms
        assert result.served_by[i] == scalar.served_by
        assert bool(result.used_local[i]) == scalar.used_local
        assert result.attempts[i] == len(scalar.attempts)


# ----------------------------------------------------------------------
# Converged, failure-free lane
# ----------------------------------------------------------------------
class TestFailureFreeEquivalence:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("local", [True, False])
    def test_latency_policy(self, base_table, router, asns, k, local):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, k=k, local=local
        )
        result = engine.lookup_batch(batch, gidx, srcs)
        assert result.success.all()
        _assert_lookup_parity(resolver, result, guids, gidx, srcs)

    @pytest.mark.parametrize("local", [True, False])
    def test_hops_policy(self, base_table, router, asns, local):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, policy="hops", local=local, seed=202
        )
        result = engine.lookup_batch(batch, gidx, srcs)
        _assert_lookup_parity(resolver, result, guids, gidx, srcs)

    def test_hops_policy_plans_the_pairs_once(
        self, base_table, router, asns, monkeypatch
    ):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, policy="hops", seed=202
        )
        plans = []
        real = Router.plan_rows

        def counting(self, sources):
            plans.append(len(sources))
            return real(self, sources)

        monkeypatch.setattr(Router, "plan_rows", counting)
        result = engine.lookup_batch(batch, gidx, srcs)
        assert len(plans) == 1
        _assert_lookup_parity(resolver, result, guids, gidx, srcs)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_asnum_placement(self, base_table, router, asns, k):
        placer = ASNumberPlacer(asns, k=k)
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, k=k, placer=placer, seed=303
        )
        result = engine.lookup_batch(batch, gidx, srcs)
        _assert_lookup_parity(resolver, result, guids, gidx, srcs)

    def test_write_rtts_match_resolver(self, base_table, router, asns, rng):
        resolver = DMapResolver(base_table, router, k=5)
        engine = from_resolver(resolver)
        values = rng.integers(0, np.iinfo(np.uint64).max, size=30, dtype=np.uint64)
        guids = [GUID(int(v)) for v in values]
        sources = rng.choice(asns, size=30)
        scalar = [
            resolver.insert(g, [NetworkAddress(1)], int(s)).rtt_ms
            for g, s in zip(guids, sources)
        ]
        batch = engine.index_guids(guids)
        fast = engine.write_rtts(batch, np.arange(30), sources)
        assert fast.tolist() == scalar


# ----------------------------------------------------------------------
# Availability lane (churn staleness, dead replicas, dead queriers)
# ----------------------------------------------------------------------
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


class TestAvailabilityEquivalence:
    def test_mixed_outcomes(self, base_table, router, asns):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, seed=404
        )
        model = _Model()
        result = engine.lookup_batch(batch, gidx, srcs, failure_model=model)
        _assert_lookup_parity(
            resolver, result, guids, gidx, srcs,
            failure_model=model,
        )

    def test_dead_querier_local_timeout(self, base_table, router, asns):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, seed=505
        )
        model = _Model(down_asns=srcs[:40])
        result = engine.lookup_batch(batch, gidx, srcs, failure_model=model)
        _assert_lookup_parity(
            resolver, result, guids, gidx, srcs,
            failure_model=model,
        )

    def test_total_failure_without_local(self, base_table, router, asns):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, local=False, seed=606
        )
        dead = RouterFailureModel(asns)
        result = engine.lookup_batch(batch, gidx, srcs, failure_model=dead)
        assert not result.success.any()
        assert (result.served_by == -1).all()
        _assert_lookup_parity(resolver, result, guids, gidx, srcs, dead)

    def test_local_fallback_after_failed_walk(self, base_table, router, asns):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, seed=707
        )
        # Route half the queries from their GUID's own attachment AS so
        # the §III-C fallback branch is guaranteed to be exercised.
        srcs = srcs.copy()
        srcs[::2] = batch.local_asns[gidx[::2]]
        missing = ChurnFailureModel(1.0)
        result = engine.lookup_batch(batch, gidx, srcs, failure_model=missing)
        _assert_lookup_parity(resolver, result, guids, gidx, srcs, missing)
        assert result.used_local.any()

    def test_unknown_outcome_rejected(self, base_table, router, asns):
        _, engine, batch, gidx, srcs, _ = _deploy(
            base_table, router, asns, seed=808
        )

        class Garbled(FailureModel):
            def lookup_outcome(self, asn, guid):
                return "garbled"

        with pytest.raises(ConfigurationError, match="unknown outcome 'garbled'"):
            engine.lookup_batch(batch, gidx, srcs, failure_model=Garbled())


# ----------------------------------------------------------------------
# Dijkstra rows sharded over n_jobs processes
# ----------------------------------------------------------------------
@pytest.fixture
def small_row_blocks(monkeypatch):
    """Row blocks small enough that a test batch's rows fill several, so
    ``n_jobs > 1`` really forks."""
    monkeypatch.setattr(routing, "ROW_BLOCK", 2)


def _assert_same_result(a, b):
    assert np.array_equal(a.rtt_ms, b.rtt_ms)
    assert np.array_equal(a.served_by, b.served_by)
    assert np.array_equal(a.used_local, b.used_local)
    assert np.array_equal(a.attempts, b.attempts)
    assert np.array_equal(a.success, b.success)


@pytest.mark.usefixtures("small_row_blocks")
class TestShardedRunner:
    def test_sharded_matches_serial(self, base_table, router, asns):
        _, engine, batch, gidx, srcs, _ = _deploy(
            base_table, router, asns, seed=909
        )
        serial = engine.lookup_batch(batch, gidx, srcs)
        for n_jobs in (2, 3):
            sharded = engine.lookup_batch(batch, gidx, srcs, n_jobs=n_jobs)
            _assert_same_result(serial, sharded)

    @pytest.mark.parametrize("policy", ["latency", "hops"])
    def test_sharded_sweep_matches_serial_and_counts_every_row(
        self, topology, base_table, asns, policy
    ):
        _, engine, batch, gidx, srcs, _ = _deploy(
            base_table, Router(topology), asns, policy=policy, seed=919
        )
        k_values = TestKSweep.K_VALUES
        runs = []
        for n_jobs in (1, 2, 3):
            engine.router = Router(topology)
            results = engine.lookup_batch(
                batch, gidx, srcs, n_jobs=n_jobs, k_values=k_values
            )
            if n_jobs == 1:
                serial = results
            for k in k_values:
                _assert_same_result(serial[k], results[k])
            runs.append(engine.router.cache_stats()["dijkstra_runs"])
        assert runs[0] > 2 * routing.ROW_BLOCK
        assert runs[0] == runs[1] == runs[2]

    def test_single_group_falls_back_to_serial(self, base_table, router, asns):
        _, engine, batch, gidx, _, _ = _deploy(base_table, router, asns, seed=111)
        srcs = np.full(len(gidx), int(asns[0]))
        serial = engine.lookup_batch(batch, gidx, srcs)
        sharded = engine.lookup_batch(batch, gidx, srcs, n_jobs=4)
        assert np.array_equal(serial.rtt_ms, sharded.rtt_ms)

    def test_sharded_availability_matches_serial(self, base_table, router, asns):
        _, engine, batch, gidx, srcs, _ = _deploy(
            base_table, router, asns, seed=121
        )
        model = _Model(down_asns=asns[:10])
        serial = engine.lookup_batch(batch, gidx, srcs, failure_model=model)
        sharded = engine.lookup_batch(
            batch, gidx, srcs, failure_model=model, n_jobs=2
        )
        _assert_same_result(serial, sharded)
        assert (serial.attempts > 1).any()


# ----------------------------------------------------------------------
# Unsupported configurations fall back loudly
# ----------------------------------------------------------------------
class TestRejections:
    def test_random_policy_rejected(self, base_table, router):
        with pytest.raises(ConfigurationError):
            FastpathEngine(base_table, router, selection_policy="random")

    def test_nonpositive_timeout_rejected(self, base_table, router):
        with pytest.raises(ConfigurationError):
            FastpathEngine(base_table, router, timeout_ms=0.0)

    def test_misaligned_local_asns_rejected(self, base_table, router):
        engine = FastpathEngine(base_table, router)
        with pytest.raises(ConfigurationError):
            engine.index_guids([GUID(1), GUID(2)], local_asns=[5])

    def test_misaligned_queries_rejected(self, base_table, router, asns):
        _, engine, batch, gidx, srcs, _ = _deploy(
            base_table, router, asns, seed=131
        )
        with pytest.raises(ConfigurationError):
            engine.lookup_batch(batch, gidx[:-1], srcs)


# ----------------------------------------------------------------------
# Placement kernels (fig6 path)
# ----------------------------------------------------------------------
class TestBatchPlacement:
    @pytest.mark.parametrize("scheme", ["guid", "asnum", "weighted"])
    def test_batch_hosting_matches_scalar(self, base_table, asns, scheme):
        rng = np.random.default_rng(42)
        values = [int(v) for v in rng.integers(0, 2**64, size=64, dtype=np.uint64)]
        if scheme == "guid":
            placer = GuidPlacer(FastHasher(5, address_bits=base_table.bits), base_table)
        elif scheme == "asnum":
            placer = ASNumberPlacer(asns, k=5)
        else:
            weights = {int(a): float(i % 7 + 1) for i, a in enumerate(asns)}
            placer = WeightedASPlacer(weights, k=5)
        batch = batch_hosting_asns(placer, values)
        for row, v in zip(batch, values):
            assert row.tolist() == placer.hosting_asns(GUID(v))

    def test_placer_outside_contract_rejected(self, base_table):
        class _PlainHasher(HashFamily):
            def hash_one(self, guid, index):
                return 0

        with pytest.raises(ConfigurationError, match="no batch kernel"):
            batch_hosting_asns(object(), [1, 2])
        placer = GuidPlacer(_PlainHasher(5, address_bits=base_table.bits), base_table)
        with pytest.raises(ConfigurationError, match="no batch kernel"):
            batch_hosting_asns(placer, [1, 2])


class TestPlacementWorkers:
    """``index_guids(n_jobs=j)`` places slices of the GUIDs on forked
    workers and must give the serial batch and the scalar chains."""

    N = 61  # three uneven slices at WORKER_ROWS = 8

    @pytest.fixture(autouse=True)
    def small_slices(self, monkeypatch):
        # A few rows per worker, so that every worker count really forks.
        monkeypatch.setattr(placement, "WORKER_ROWS", 8)

    @pytest.mark.parametrize("scheme", ["deputies", "roster"])
    def test_every_worker_count_matches_the_chains(
        self, base_table, router, asns, scheme
    ):
        if scheme == "deputies":
            # About half the space is announced, so two hashes per chain
            # leave about a quarter of the chains to the deputy fallback.
            placer = GuidPlacer(
                Sha256Hasher(5, address_bits=base_table.bits), base_table,
                max_rehashes=2,
            )
        else:
            placer = ASNumberPlacer(asns, k=5)
        rng = np.random.default_rng(61)
        values = [int(v) for v in rng.integers(0, 2**64, size=self.N, dtype=np.uint64)]
        serial = batch_resolutions(placer, values)
        if scheme == "deputies":
            assert serial[2].any() and not serial[2].all()
        engine = FastpathEngine(base_table, router, placer=placer)
        for n_jobs in (1, 2, 3):
            assert placement.placement_workers(self.N, n_jobs) == n_jobs
            batch = engine.index_guids([GUID(v) for v in values], n_jobs=n_jobs)
            planes = (batch.placements, batch.hash_attempts, batch.via_deputy)
            for plane, want in zip(planes, serial):
                assert plane.dtype == want.dtype
                assert np.array_equal(plane, want), f"n_jobs={n_jobs}"
            for row, value in enumerate(values):
                chains = placer.resolve_all(value)
                assert batch.placements[row].tolist() == [c.asn for c in chains]
                assert batch.hash_attempts[row].tolist() == [c.attempts for c in chains]
                assert batch.via_deputy[row].tolist() == [c.via_deputy for c in chains]

    def test_a_failed_placement_worker_raises(self, base_table, router, monkeypatch):
        parent = os.getpid()
        real = placement.resolve_batch

        def dies_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError("worker lost")
            return real(*args, **kwargs)

        monkeypatch.setattr(placement, "resolve_batch", dies_in_workers)
        engine = FastpathEngine(base_table, router)
        with pytest.raises(WorkerError, match="placement worker"):
            engine.index_guids([GUID(v) for v in range(self.N)], n_jobs=2)

    def test_places_against_the_table_as_it_stands(self, table, router):
        # An engine reused after the BGP table changes must not place
        # GUIDs against the view it saw first.
        placer = GuidPlacer(Sha256Hasher(5, address_bits=table.bits), table)
        engine = FastpathEngine(table, router, placer=placer)
        guids = [GUID.from_name(f"moved-{i}") for i in range(300)]
        before = engine.index_guids(guids)
        hosts, counts = np.unique(before.placements, return_counts=True)
        gone = int(hosts[np.argmax(counts)])
        for prefix in table.prefixes_of(gone):
            table.withdraw(prefix)
        after = engine.index_guids(guids)
        assert gone not in after.placements
        for row, guid in enumerate(guids):
            assert after.placements[row].tolist() == placer.hosting_asns(guid)


# ----------------------------------------------------------------------
# K sweeps: one engine at max K evaluates every smaller K on its prefix
# ----------------------------------------------------------------------
def _placer(scheme, base_table, asns, k):
    if scheme == "guid-sha256":
        return GuidPlacer(Sha256Hasher(k, address_bits=base_table.bits), base_table)
    if scheme == "guid-fast":
        return GuidPlacer(FastHasher(k, address_bits=base_table.bits), base_table)
    if scheme == "asnum":
        return ASNumberPlacer(asns, k=k)
    weights = {int(a): float(i % 7 + 1) for i, a in enumerate(asns)}
    return WeightedASPlacer(weights, k=k)


SCHEMES = ["guid-sha256", "guid-fast", "asnum", "weighted"]


class TestKPrefix:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_smaller_k_is_column_prefix(self, base_table, asns, scheme):
        rng = np.random.default_rng(43)
        values = [int(v) for v in rng.integers(0, 2**64, size=300, dtype=np.uint64)]
        index = base_table.build_interval_index()
        full = batch_resolutions(_placer(scheme, base_table, asns, 5), values, index)
        if scheme.startswith("guid"):
            # The prefix must hold through IP-hole rehashes too.
            assert (full[1] > 1).any()
        for k in (1, 3):
            placer = _placer(scheme, base_table, asns, k)
            for plane_k, plane_full in zip(
                batch_resolutions(placer, values, index), full
            ):
                assert np.array_equal(plane_k, plane_full[:, :k])

    @pytest.mark.parametrize("k_values", [(), (0,), (6,), (3, 3)])
    def test_invalid_k_values_rejected(self, base_table, router, asns, k_values):
        _, engine, batch, gidx, srcs, _ = _deploy(base_table, router, asns, seed=151)
        with pytest.raises(ConfigurationError):
            engine.lookup_batch(batch, gidx, srcs, k_values=k_values)


class TestKSweep:
    K_VALUES = (1, 3, 5)

    @pytest.mark.parametrize("policy", ["latency", "hops"])
    @pytest.mark.parametrize("local", [True, False])
    @pytest.mark.parametrize("available", [True, False])
    def test_sweep_matches_per_k_engines_and_oracle(
        self, base_table, router, asns, policy, local, available
    ):
        model = None if available else _Model(down_asns=asns[:10])
        _, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, policy=policy, local=local, seed=161
        )
        sweep = engine.lookup_batch(
            batch, gidx, srcs, failure_model=model, k_values=self.K_VALUES
        )
        assert list(sweep) == list(self.K_VALUES)
        for k in self.K_VALUES:
            resolver, engine_k, batch_k, _, _, _ = _deploy(
                base_table, router, asns, k=k, policy=policy, local=local,
                seed=161,
            )
            _assert_same_result(
                sweep[k],
                engine_k.lookup_batch(batch_k, gidx, srcs, failure_model=model),
            )
            _assert_lookup_parity(
                resolver, sweep[k], guids, gidx, srcs,
                failure_model=model,
            )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sweep_over_every_prefix_stable_placer(
        self, base_table, router, asns, scheme
    ):
        _, engine, batch, gidx, srcs, _ = _deploy(
            base_table, router, asns,
            placer=_placer(scheme, base_table, asns, 5), seed=171,
        )
        sweep = engine.lookup_batch(batch, gidx, srcs, k_values=self.K_VALUES)
        for k in self.K_VALUES:
            _, engine_k, batch_k, _, _, _ = _deploy(
                base_table, router, asns, k=k,
                placer=_placer(scheme, base_table, asns, k), seed=171,
            )
            _assert_same_result(sweep[k], engine_k.lookup_batch(batch_k, gidx, srcs))

    def test_each_row_computed_once(self, topology, base_table, asns):
        small = Router(topology, cache_size=4)
        _, engine, batch, gidx, srcs, _ = _deploy(base_table, small, asns, seed=181)
        start = small.cache_stats()
        engine.lookup_batch(batch, gidx, srcs, k_values=self.K_VALUES)
        stats = small.cache_stats()
        exact, derived = small.plan_rows(small.indices_of(srcs))
        runs = stats["dijkstra_runs"] - start["dijkstra_runs"]
        fallbacks = stats["fallback_rows"] - start["fallback_rows"]
        assert stats["derived_rows"] - start["derived_rows"] == len(derived)
        assert runs == len(exact) + fallbacks
        assert runs < len(set(srcs.tolist()))
        # The pair call leaves the LRU alone: nothing is evicted.
        assert stats["evictions"] == start["evictions"]

    def test_sharded_sweep_matches_serial(
        self, base_table, router, asns, small_row_blocks
    ):
        _, engine, batch, gidx, srcs, _ = _deploy(base_table, router, asns, seed=191)
        serial = engine.lookup_batch(batch, gidx, srcs, k_values=self.K_VALUES)
        for n_jobs in (2, 3):
            sharded = engine.lookup_batch(
                batch, gidx, srcs, n_jobs=n_jobs, k_values=self.K_VALUES
            )
            for k in self.K_VALUES:
                _assert_same_result(serial[k], sharded[k])

    def test_sweep_traces_match_per_k_engines(self, base_table, router, asns):
        model = _Model(down_asns=asns[:10])
        _, engine, batch, gidx, srcs, _ = _deploy(base_table, router, asns, seed=201)
        engine.tracer = CollectingTracer()
        engine.lookup_batch(
            batch, gidx, srcs, failure_model=model, k_values=self.K_VALUES
        )
        per_k = []
        for k in self.K_VALUES:
            _, engine_k, batch_k, _, _, _ = _deploy(
                base_table, router, asns, k=k, seed=201
            )
            engine_k.tracer = CollectingTracer()
            engine_k.lookup_batch(batch_k, gidx, srcs, failure_model=model)
            per_k.extend(engine_k.tracer.traces)
        assert dumps_traces(engine.tracer.traces) == dumps_traces(per_k)


class TestWalkSlices:
    def test_group_larger_than_a_slice_matches_oracle(
        self, base_table, router, asns
    ):
        """One source issues more lookups than a walk slice holds, so its
        group is cut across slices, each slice also holding other
        sources' rows."""
        k_values = (1, 3, 5)
        model = _Model(down_asns=asns[:10])
        _, engine, batch, _, _, guids = _deploy(base_table, router, asns, seed=211)
        down = set(int(a) for a in asns[:10])
        # The attachment AS of some GUIDs, so the big group races local copies.
        big = next(int(a) for a in batch.local_asns if int(a) not in down)
        rng = np.random.default_rng(211)
        srcs = np.r_[np.full(WALK_ROWS + 300, big), rng.choice(asns, size=300)]
        rng.shuffle(srcs)
        gidx = rng.integers(0, N_GUIDS, size=len(srcs))
        engine.tracer = CollectingTracer()
        sweep = engine.lookup_batch(
            batch, gidx, srcs, failure_model=model, k_values=k_values
        )
        scalar_traces = []
        for k in k_values:
            resolver, _, _, _, _, _ = _deploy(
                base_table, router, asns, k=k, seed=211
            )
            resolver.tracer = CollectingTracer()
            _assert_lookup_parity(
                resolver, sweep[k], guids, gidx, srcs,
                failure_model=model,
            )
            scalar_traces.extend(resolver.tracer.traces)
        assert sweep[5].used_local.any()
        assert not sweep[5].success.all()
        assert dumps_traces(engine.tracer.traces) == dumps_traces(scalar_traces)


# ----------------------------------------------------------------------
# Workload integration
# ----------------------------------------------------------------------
class TestWorkloadEngine:
    @pytest.fixture(scope="class")
    def workload(self, topology):
        config = WorkloadConfig(n_guids=30, n_lookups=120, seed=3)
        return WorkloadGenerator(topology, config).generate()

    def test_fastpath_rtts_match_scalar(self, topology, base_table, router, workload):
        scalar = workload.run_through_resolver(
            DMapResolver(base_table, router, k=5), base_table
        )
        arrays = workload.lookup_arrays()
        engine = from_resolver(DMapResolver(base_table, router, k=5))
        batch = engine.index_guids(arrays.guids, arrays.local_asns)
        fast = engine.lookup_batch(
            batch, arrays.guid_idx, arrays.sources, issued_at=arrays.issued_at
        ).rtt_ms.tolist()
        # Scalar returns grouped order, fastpath event order: compare as
        # sorted sequences (both exact, no tolerance).
        assert sorted(fast) == sorted(scalar)
        assert len(fast) == workload.config.n_lookups

    def test_unknown_engine_rejected(self):
        from repro.experiments.fig4_response_time import run_fig4

        with pytest.raises(ConfigurationError, match="unknown engine"):
            run_fig4("small", engine="quantum")
