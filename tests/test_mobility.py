"""Tests for the host mobility model."""

import numpy as np
import pytest

from repro.core.guid import GUID
from repro.errors import WorkloadError
from repro.workload.mobility import MobilityModel

DAY_MS = 86_400_000.0


class TestMoveSchedules:
    def test_rate_matches_configuration(self, topology):
        model = MobilityModel(topology, updates_per_day=100, seed=0)
        guid = GUID.from_name("car")
        moves = model.moves_for_host(guid, topology.asns()[0], horizon_ms=DAY_MS)
        # Poisson(100) over one day.
        assert 60 <= len(moves) <= 140

    def test_moves_within_horizon_and_ordered(self, topology):
        model = MobilityModel(topology, seed=1)
        moves = model.moves_for_host(
            GUID(1), topology.asns()[0], horizon_ms=DAY_MS / 4
        )
        times = [m.time_ms for m in moves]
        assert times == sorted(times)
        assert all(0 <= t < DAY_MS / 4 for t in times)

    def test_moves_chain_attachments(self, topology):
        model = MobilityModel(topology, seed=2)
        start = topology.asns()[0]
        moves = model.moves_for_host(GUID(1), start, horizon_ms=DAY_MS)
        current = start
        for move in moves:
            assert move.from_asn == current
            current = move.to_asn

    def test_neighborhood_regime_moves_to_neighbors(self, topology):
        model = MobilityModel(topology, regime="neighborhood", seed=3)
        start = topology.asns()[5]
        moves = model.moves_for_host(GUID(1), start, horizon_ms=DAY_MS / 2)
        for move in moves:
            assert move.to_asn in topology.neighbors(move.from_asn)

    def test_global_regime_reaches_far(self, topology):
        model = MobilityModel(topology, regime="global", seed=4)
        start = topology.asns()[5]
        moves = model.moves_for_host(GUID(1), start, horizon_ms=DAY_MS)
        non_neighbor = sum(
            1
            for m in moves
            if m.to_asn not in topology.neighbors(m.from_asn)
        )
        assert non_neighbor > 0

    def test_population_schedule_merged_sorted(self, topology):
        model = MobilityModel(topology, seed=5)
        homes = {GUID(i): topology.asns()[i] for i in range(5)}
        moves = model.moves_for_population(homes, horizon_ms=DAY_MS / 10)
        times = [m.time_ms for m in moves]
        assert times == sorted(times)
        assert {m.guid for m in moves} <= set(homes)

    def test_validation(self, topology):
        with pytest.raises(WorkloadError):
            MobilityModel(topology, updates_per_day=0)
        with pytest.raises(WorkloadError):
            MobilityModel(topology, regime="teleport")
        model = MobilityModel(topology)
        with pytest.raises(WorkloadError):
            model.moves_for_host(GUID(1), topology.asns()[0], -1.0)
