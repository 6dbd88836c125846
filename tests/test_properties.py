"""Cross-cutting property-based tests (hypothesis).

These pin down the systemic guarantees the paper's design rests on:
any-router derivability of placements, deterministic simulation, and
order-insensitivity of the selection machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.table import GlobalPrefixTable
from repro.core.guid import GUID
from repro.hashing.hashers import Sha256Hasher
from repro.hashing.rehash import GuidPlacer
from repro.sim.engine import Simulator

from .test_trie import announcement_sets


class TestAnyRouterDerivability:
    """§III-A: 'it allows the hosting ASs to be deterministically and
    locally derived from the identifier by any network entity' — two
    independently constructed gateways with the same BGP view must agree
    on every placement."""

    @given(announcement_sets(), st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=60)
    def test_two_gateways_agree(self, announcements, guid_value):
        table_a = GlobalPrefixTable(announcements, bits=8)
        table_b = GlobalPrefixTable(list(reversed(announcements)), bits=8)
        placer_a = GuidPlacer(Sha256Hasher(3, address_bits=8), table_a)
        placer_b = GuidPlacer(Sha256Hasher(3, address_bits=8), table_b)
        assert placer_a.hosting_asns(guid_value) == placer_b.hosting_asns(guid_value)

    @given(announcement_sets())
    @settings(max_examples=40)
    def test_placement_always_lands_on_a_participant(self, announcements):
        table = GlobalPrefixTable(announcements, bits=8)
        placer = GuidPlacer(Sha256Hasher(2, address_bits=8), table, max_rehashes=4)
        participants = set(table.asns())
        for i in range(10):
            for asn in placer.hosting_asns(GUID.from_name(f"p{i}")):
                assert asn in participants


class TestSimulatorProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60)
    def test_execution_is_time_sorted_and_cancellation_exact(self, schedule):
        sim = Simulator()
        fired = []
        handles = []
        for idx, (delay, cancel) in enumerate(schedule):
            handles.append(
                (
                    sim.schedule(delay, lambda i=idx: fired.append(i)),
                    cancel,
                    delay,
                    idx,
                )
            )
        for handle, cancel, _delay, _idx in handles:
            if cancel:
                handle.cancel()
        sim.run()
        expected_alive = [
            idx for _h, cancel, _d, idx in handles if not cancel
        ]
        assert sorted(fired) == sorted(expected_alive)
        times = [schedule[i][0] for i in fired]
        assert times == sorted(times)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_clock_never_regresses(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)


class TestSelectorProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_order_is_permutation_and_stable(self, seed, n_candidates):
        # Uses the session substrate via pytest fixtures indirectly is not
        # possible under @given; build a tiny one here.
        from repro.core.replication import ReplicaSelector
        from .topology_fixtures import line_fixture
        from repro.topology.routing import Router

        router = Router(line_fixture(n=8))
        selector = ReplicaSelector(router, "latency")
        rng = np.random.default_rng(seed)
        candidates = [int(a) for a in rng.integers(1, 9, size=n_candidates)]
        ordered = selector.order_candidates(1, candidates)
        assert set(ordered) == set(candidates)
        assert len(ordered) == len(set(candidates))
        assert ordered == selector.order_candidates(1, candidates)
