"""End-to-end integration tests across the whole stack.

These exercise full lifecycles — insert, mobility, churn, failure — over
the generated substrate, through both the instant resolver and the
discrete-event simulation.
"""

import numpy as np
import pytest

from repro.bgp.churn import ChurnScheduleGenerator, ChurnKind
from repro.bgp.prefix import Announcement
from repro.core.consistency import (
    audit_placement,
    handle_new_announcement,
    prepare_withdrawal,
    repair_mapping,
)
from repro.core.guid import GUID
from repro.core.resolver import DMapResolver
from repro.sim.simulation import DMapSimulation
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.mobility import MobilityModel


class TestMobileHostLifecycle:
    def test_voice_call_scenario(self, table, router, asns, rng):
        """§I's motivating example: a call keeps resolving a phone whose
        locator changes many times during the session."""
        resolver = DMapResolver(table, router, k=5)
        phone = GUID.from_name("imsi-310150123456789")
        caller_asn = int(rng.choice(asns))

        mobility = MobilityModel(table_topology(router), updates_per_day=2000, seed=3)
        home = int(rng.choice(asns))
        resolver.insert(phone, [table.representative_address(home)], home)
        moves = mobility.moves_for_host(phone, home, horizon_ms=3_600_000.0)
        assert moves, "a vehicular host must move within an hour"

        current = home
        for move in moves[:25]:
            resolver.update(
                phone, [table.representative_address(move.to_asn)], move.to_asn
            )
            current = move.to_asn
            result = resolver.lookup(phone, caller_asn)
            # The caller always sees the freshest binding.
            assert result.locators == (table.representative_address(current),)
            assert result.entry.version > 0 or move is moves[0]

    def test_version_monotone_across_moves(self, table, router, asns, rng):
        resolver = DMapResolver(table, router, k=3)
        guid = GUID.from_name("walker")
        versions = []
        for i in range(6):
            asn = int(rng.choice(asns))
            op = resolver.insert if i == 0 else resolver.update
            op(guid, [table.representative_address(asn)], asn)
            versions.append(resolver.lookup(guid, asn).entry.version)
        assert versions == sorted(versions)
        assert versions[-1] == 5


class TestChurnLifecycle:
    def test_sustained_churn_with_protocol_keeps_resolvability(
        self, table, router, asns, rng
    ):
        """Run a real churn schedule; after every event the §III-D
        protocol runs and every GUID must remain resolvable."""
        resolver = DMapResolver(table, router, k=5)
        guids = []
        for i in range(40):
            guid = GUID.from_name(f"churny-{i}")
            home = int(rng.choice(asns))
            resolver.insert(guid, [table.representative_address(home)], home)
            guids.append(guid)

        churn = ChurnScheduleGenerator(table, 0.5, 0.5, seed=4)
        events = 0
        for event in churn.events(horizon=30.0):
            if event.kind is ChurnKind.WITHDRAW:
                prepare_withdrawal(resolver, event.announcement.prefix)
            else:
                handle_new_announcement(resolver, event.announcement, eager=True)
            events += 1
        assert events > 5, "expected a meaningful amount of churn"

        audit = audit_placement(resolver)
        assert audit["missing"] == 0
        assert audit["mislocated"] == 0
        for guid in guids:
            result = resolver.lookup(guid, int(rng.choice(asns)))
            assert result.entry.guid == guid

    def test_lazy_repair_after_flap(self, table, router, asns, rng):
        resolver = DMapResolver(table, router, k=5)
        guids = [GUID.from_name(f"flap-{i}") for i in range(30)]
        for guid in guids:
            home = int(rng.choice(asns))
            resolver.insert(guid, [table.representative_address(home)], home)
        # Withdraw-then-reannounce one busy prefix (a flap).
        load = resolver.storage_load()
        busy_asn = max(load, key=load.get)
        prefix = table.prefixes_of(busy_asn)[0]
        prepare_withdrawal(resolver, prefix)
        handle_new_announcement(
            resolver, Announcement(prefix, busy_asn), eager=False
        )
        # Queries still resolve (replicas elsewhere), then lazy repair
        # converges placement.
        for guid in guids:
            assert resolver.lookup(guid, int(rng.choice(asns))).entry.guid == guid
        for guid in guids:
            repair_mapping(resolver, guid)
        audit = audit_placement(resolver)
        assert audit["mislocated"] == 0


class TestFullSimulationWithMobility:
    def test_moving_hosts_in_des(self, topology, base_table, router, asns, rng):
        sim = DMapSimulation(topology, base_table, k=5, router=router)
        mobility = MobilityModel(topology, updates_per_day=500, seed=5)

        hosts = {}
        for i in range(15):
            guid = GUID.from_name(f"mobile-{i}")
            home = int(rng.choice(asns))
            hosts[guid] = home
            sim.schedule_insert(
                guid, [base_table.representative_address(home)], home, at=0.0
            )

        horizon = 3_600_000.0  # one hour
        moves = mobility.moves_for_population(hosts, horizon, start_ms=60_000.0)
        for move in moves:
            sim.schedule_update(
                move.guid,
                [base_table.representative_address(move.to_asn)],
                move.to_asn,
                at=move.time_ms,
            )
        # Queries sprinkled throughout.
        guids = list(hosts)
        for i in range(200):
            at = 120_000.0 + i * (horizon - 200_000.0) / 200
            sim.schedule_lookup(
                guids[int(rng.integers(0, len(guids)))], int(rng.choice(asns)), at=at
            )
        sim.run()
        assert len(sim.metrics.records) == 200
        assert not sim.metrics.failed
        # Every mapping's final locator matches its last scheduled update.
        final = {}
        for move in moves:
            final[move.guid] = move.to_asn
        for guid, last_asn in final.items():
            expected = base_table.representative_address(last_asn)
            for asn in set(sim.placer.hosting_asns(guid)):
                entry = sim.nodes[asn].store.get(guid)
                assert entry is not None
                assert entry.locators == (expected,)


class TestWorkloadThroughBothEngines:
    def test_statistical_agreement(self, topology, base_table, router):
        """The instant resolver and the DES must produce identical latency
        samples for the same generated workload."""
        workload = WorkloadGenerator(
            topology, WorkloadConfig(n_guids=80, n_lookups=500, seed=6)
        ).generate()

        resolver = DMapResolver(base_table, router, k=5)
        instant = np.sort(workload.run_through_resolver(resolver, base_table))

        sim = DMapSimulation(topology, base_table, k=5, router=router)
        workload.apply_to_simulation(sim, base_table)
        sim.run()
        simulated = np.sort(sim.metrics.rtts())

        np.testing.assert_allclose(instant, simulated, rtol=1e-9)


def table_topology(router):
    """The topology backing a router (helper for mobility tests)."""
    return router.topology
