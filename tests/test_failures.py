"""Tests for the failure-injection models."""

import numpy as np
import pytest

from repro.core.guid import GUID
from repro.core.resolver import (
    OUTCOME_HIT,
    OUTCOME_MISSING,
    OUTCOME_TIMEOUT,
    DMapResolver,
)
from repro.errors import ConfigurationError, LookupFailedError
from repro.sim.failures import ChurnFailureModel, FailureModel

from .failure_models import CompositeFailureModel, RouterFailureModel
from .test_fastpath import from_resolver


class TestBaseModel:
    def test_everything_works(self):
        model = FailureModel()
        assert model.lookup_outcome(1, GUID(1)) == OUTCOME_HIT
        assert not model.is_down(1)


class TestChurnModel:
    def test_rate_zero_never_fails(self):
        model = ChurnFailureModel(0.0)
        assert all(
            model.lookup_outcome(1, GUID(i)) == OUTCOME_HIT for i in range(100)
        )

    def test_rate_one_always_fails(self):
        model = ChurnFailureModel(1.0)
        assert all(
            model.lookup_outcome(1, GUID(i)) == OUTCOME_MISSING for i in range(100)
        )

    def test_empirical_rate(self):
        model = ChurnFailureModel(0.2, seed=1)
        misses = sum(
            model.lookup_outcome(1, GUID(i)) == OUTCOME_MISSING
            for i in range(10_000)
        )
        assert misses / 10_000 == pytest.approx(0.2, abs=0.02)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChurnFailureModel(1.5)

    def test_never_marks_down(self):
        assert not ChurnFailureModel(0.5).is_down(1)


class TestRouterFailureModel:
    def test_down_set(self):
        model = RouterFailureModel([3, 7])
        assert model.is_down(3)
        assert not model.is_down(4)
        assert model.lookup_outcome(3, GUID(1)) == OUTCOME_TIMEOUT
        assert model.lookup_outcome(4, GUID(1)) == OUTCOME_HIT

    def test_random_fraction(self):
        asns = list(range(1, 101))
        model = RouterFailureModel.random(asns, 0.1, seed=2)
        assert len(model.down) == 10
        assert model.down <= set(asns)

    def test_random_zero(self):
        model = RouterFailureModel.random(list(range(10)), 0.0)
        assert not model.down

    def test_random_validation(self):
        with pytest.raises(ConfigurationError):
            RouterFailureModel.random([1, 2], 2.0)

    def test_random_deterministic(self):
        asns = list(range(1, 51))
        a = RouterFailureModel.random(asns, 0.2, seed=9)
        b = RouterFailureModel.random(asns, 0.2, seed=9)
        assert a.down == b.down


class TestCompositeModel:
    def test_worst_outcome_wins(self):
        composite = CompositeFailureModel(
            [ChurnFailureModel(1.0), RouterFailureModel([5])]
        )
        assert composite.lookup_outcome(5, GUID(1)) == OUTCOME_TIMEOUT
        assert composite.lookup_outcome(6, GUID(1)) == OUTCOME_MISSING

    def test_is_down_any(self):
        composite = CompositeFailureModel([FailureModel(), RouterFailureModel([2])])
        assert composite.is_down(2)
        assert not composite.is_down(3)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            CompositeFailureModel([])


class TestTracedFailureRuns:
    """Failure-path forensics: the DES trace stream under injected faults.

    These runs exercise the tracing hooks on every failure branch of the
    walk — dropped requests at dead ASes (the DES message-loss
    mechanism), the adaptive per-attempt timeout, the local-branch timer
    of a down querier, and the exhausted-walk failure cause.
    """

    def _traced_sim(self, topology, base_table, router, model):
        from repro.obs import CollectingTracer
        from repro.sim.simulation import DMapSimulation

        tracer = CollectingTracer()
        sim = DMapSimulation(
            topology,
            base_table,
            k=5,
            router=router,
            failure_model=model,
            tracer=tracer,
        )
        return sim, tracer

    def _schedule(self, sim, base_table, hosts):
        for i, (guid, home, querier) in enumerate(hosts):
            locator = base_table.representative_address(home)
            sim.schedule_insert(guid, [locator], home, at=0.0)
            sim.schedule_lookup(guid, querier, at=60_000.0 + 10.0 * i)

    def test_dead_replicas_leave_adaptive_timeout_attempts(
        self, topology, base_table, router, asns, rng
    ):
        from repro.core.resolver import OUTCOME_TIMEOUT as TIMEOUT

        down = set(int(a) for a in asns[: len(asns) // 4])
        up = [int(a) for a in asns if int(a) not in down]
        model = RouterFailureModel(down)
        sim, tracer = self._traced_sim(topology, base_table, router, model)
        hosts = [
            (
                GUID.from_name(f"dead-replica-{i}"),
                int(rng.choice(up)),
                int(rng.choice(up)),
            )
            for i in range(40)
        ]
        self._schedule(sim, base_table, hosts)
        sim.run()

        assert len(tracer.traces) == len(hosts)
        timeouts = [
            a for t in tracer.traces for a in t.attempts if a.outcome == TIMEOUT
        ]
        assert timeouts, "expected dropped requests at dead replicas"
        for a in timeouts:
            # Requests to a dead AS vanish; the walk only moves on when
            # the adaptive timer max(timeout, 2*rtt) fires, so that is
            # exactly the attempt's observed cost.
            assert a.asn in down
            assert a.cost_ms >= sim.timeout_ms - 1e-9
        for t in tracer.traces:
            if t.success and not t.used_local:
                assert t.attempts[-1].outcome == "hit"
                assert t.served_by == t.attempts[-1].asn
                assert t.served_by not in down

    def test_down_querier_still_served_globally(
        self, topology, base_table, router, asns, rng
    ):
        down_src = int(asns[3])
        model = RouterFailureModel([down_src])
        sim, tracer = self._traced_sim(topology, base_table, router, model)
        up = [int(a) for a in asns if int(a) != down_src]
        hosts = [
            (GUID.from_name(f"dead-src-{i}"), int(rng.choice(up)), down_src)
            for i in range(10)
        ]
        self._schedule(sim, base_table, hosts)
        sim.run()

        assert len(tracer.traces) == len(hosts)
        for t in tracer.traces:
            assert t.source_asn == down_src
            # A dead querier drops its own local-branch request, but the
            # global replicas still answer (matching the scalar model,
            # where is_down only kills the local branch).  The walk wins
            # long before the ~5 s local timer, so the trace shows the
            # local reply still in flight: launched, never observed.
            assert t.success
            assert not t.used_local
            assert t.served_by != down_src
            if t.local_launched:
                assert t.local_outcome is None
                assert t.local_end_ms is None
                assert "local=in-flight" in t.compact()

    def test_total_outage_observes_local_timeout_and_exhaustion(
        self, topology, base_table, router, asns, rng
    ):
        model = RouterFailureModel([int(a) for a in asns])
        sim, tracer = self._traced_sim(topology, base_table, router, model)
        hosts = [
            (
                GUID.from_name(f"outage-{i}"),
                int(rng.choice(asns)),
                int(rng.choice(asns)),
            )
            for i in range(10)
        ]
        self._schedule(sim, base_table, hosts)
        sim.run()

        assert len(tracer.traces) == len(hosts)
        assert len(sim.metrics.failed) == len(hosts)
        for t in tracer.traces:
            assert not t.success
            assert t.failure_cause == "exhausted"
            assert t.served_by is None
            # Every replica contact vanished: K distinct-AS timeout
            # attempts, each costing the full adaptive timer.
            assert t.attempts
            assert all(a.outcome == "timeout" for a in t.attempts)
            assert all(a.cost_ms >= sim.timeout_ms - 1e-9 for a in t.attempts)
            # The walk burns >= K * timeout sequentially, so this time
            # the ~1 * timeout local timer does fire and get recorded.
            if t.local_launched:
                assert t.local_outcome == "timeout"
                assert t.local_end_ms is not None
                assert t.local_end_ms >= sim.timeout_ms - 1e-9
                assert t.rtt_ms >= t.local_end_ms

    def test_churn_misses_show_as_orphaned_mappings(
        self, topology, base_table, router, asns, rng
    ):
        from repro.obs import aggregate_traces

        model = ChurnFailureModel(0.4, seed=5)
        sim, tracer = self._traced_sim(topology, base_table, router, model)
        hosts = [
            (
                GUID.from_name(f"churn-{i}"),
                int(rng.choice(asns)),
                int(rng.choice(asns)),
            )
            for i in range(40)
        ]
        self._schedule(sim, base_table, hosts)
        sim.run()

        assert len(tracer.traces) == len(hosts)
        report = aggregate_traces(tracer.traces).report()
        misses = sum(
            1
            for t in tracer.traces
            for a in t.attempts
            if a.outcome == OUTCOME_MISSING
        )
        assert misses > 0, "expected churned-away mappings to answer missing"
        assert sum(report["orphaned_mapping_hits"]["values"].values()) == misses
        failed = [t for t in tracer.traces if not t.success]
        assert len(failed) == len(sim.metrics.failed)


class TestOneModelAcrossEngines:
    """One failure-model object, passed unchanged to the resolver, the
    fastpath and the DES, gives every query the same server and the same
    number of replica attempts in all three."""

    def test_down_querier_same_walk_in_every_engine(
        self, topology, base_table, router, asns, rng
    ):
        from repro.sim.simulation import DMapSimulation

        down = [int(a) for a in asns[: len(asns) // 4]]
        down_src = down[0]
        up = [int(a) for a in asns if int(a) not in set(down)]
        model = RouterFailureModel(down)
        guids = [GUID.from_name(f"one-model-{i}") for i in range(30)]
        # Five GUIDs live at the down querier: its local copy is there,
        # but the down service swallows the local request.
        homes = [down_src] * 5 + [int(rng.choice(up)) for _ in guids[5:]]
        # A third of the lookups come from the down querier, a third from
        # the GUID's home (a local copy to race), a third from anywhere.
        lookups = []
        for i in range(90):
            g = i % len(guids)
            lookups.append((g, (down_src, homes[g], int(rng.choice(asns)))[i % 3]))
        issued = [60_000.0 + 10.0 * i for i in range(len(lookups))]

        resolver = DMapResolver(base_table, router, k=5)
        sim = DMapSimulation(
            topology, base_table, k=5, router=router, failure_model=model
        )
        for guid, home in zip(guids, homes):
            locator = base_table.representative_address(home)
            resolver.insert(guid, [locator], home)
            sim.schedule_insert(guid, [locator], home, at=0.0)
        scalar = []
        for (g, src), at in zip(lookups, issued):
            sim.schedule_lookup(guids[g], src, at=at)
            try:
                found = resolver.lookup(guids[g], src, model)
                scalar.append(
                    (found.served_by, len(found.attempts), found.used_local)
                )
            except LookupFailedError as exc:
                scalar.append((None, exc.attempts, False))
        sim.run()
        engine = from_resolver(resolver)
        fast = engine.lookup_batch(
            engine.index_guids(guids, homes),
            np.array([g for g, _ in lookups]),
            np.array([src for _, src in lookups]),
            failure_model=model,
        )
        des = {record.issued_at: record for record in sim.metrics.records}

        assert len(des) == len(lookups)
        for i, (served_by, attempts, _) in enumerate(scalar):
            assert (des[issued[i]].served_by, des[issued[i]].attempts) == (
                served_by,
                attempts,
            )
            fast_served = int(fast.served_by[i]) if fast.success[i] else None
            assert (fast_served, int(fast.attempts[i])) == (served_by, attempts)
        # The run covers what it claims: the down querier is served by a
        # live replica, some walks time out first, some local copies win.
        from_down = [r for (_, src), r in zip(lookups, scalar) if src == down_src]
        assert all(served not in (None, down_src) for served, _, _ in from_down)
        assert any(attempts > 1 for _, attempts, _ in scalar)
        assert any(used_local for _, _, used_local in scalar)
