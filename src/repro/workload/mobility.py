"""Host mobility: attachment-point changes driving GUID Updates.

§III-D.2 and §IV-A frame the mobility regime DMap targets: billions of
mobile hosts updating their GUID→NA binding ~100 times/day as they move
between networks ("a mobile device in a vehicle may change its network
attachment points many times" during one session).  This module generates
per-host move schedules.

Two movement regimes:

* ``"global"`` — the next AS is drawn population-weighted from the whole
  topology (long-range travel);
* ``"neighborhood"`` — the next AS is a topological neighbor of the
  current one (vehicular/commuter movement between adjacent access
  networks), falling back to global when the current AS is isolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core.guid import GUID
from ..errors import WorkloadError
from ..topology.graph import ASTopology
from .sources import SourceSampler

#: The paper's headline mobility estimate: 100 binding updates per day
#: per mobile host (§IV-A).
PAPER_UPDATES_PER_DAY = 100.0


@dataclass(frozen=True)
class MoveEvent:
    """One attachment change of one host."""

    time_ms: float
    guid: GUID
    from_asn: int
    to_asn: int


class MobilityModel:
    """Generates Poisson move schedules for a population of hosts.

    Parameters
    ----------
    topology:
        The AS graph hosts move over.
    updates_per_day:
        Mean attachment-change rate per host.
    regime:
        ``"global"`` or ``"neighborhood"`` (see module docstring).
    seed:
        Private RNG seed.
    """

    def __init__(
        self,
        topology: ASTopology,
        updates_per_day: float = PAPER_UPDATES_PER_DAY,
        regime: str = "neighborhood",
        seed: int = 0,
    ) -> None:
        if updates_per_day <= 0:
            raise WorkloadError("updates_per_day must be positive")
        if regime not in ("global", "neighborhood"):
            raise WorkloadError(f"unknown mobility regime {regime!r}")
        self.topology = topology
        self.updates_per_day = updates_per_day
        self.regime = regime
        self.rng = np.random.default_rng(seed)
        self._sampler = SourceSampler(topology, self.rng)
        self._mean_interval_ms = 86_400_000.0 / updates_per_day

    def next_attachment(self, current_asn: int) -> int:
        """Draw the AS a host at ``current_asn`` moves to next."""
        if self.regime == "neighborhood":
            neighbors = self.topology.neighbors(current_asn)
            if neighbors:
                return int(neighbors[int(self.rng.integers(0, len(neighbors)))])
        # global regime, or isolated AS fallback
        nxt = self._sampler.sample_one()
        if nxt == current_asn and len(self.topology) > 1:
            nxt = self._sampler.sample_one()
        return nxt

    def moves_for_host(
        self,
        guid: GUID,
        start_asn: int,
        horizon_ms: float,
        start_ms: float = 0.0,
    ) -> List[MoveEvent]:
        """Poisson move schedule for one host over ``[start_ms, horizon_ms)``."""
        if horizon_ms < start_ms:
            raise WorkloadError("horizon precedes start")
        moves: List[MoveEvent] = []
        time_ms = start_ms
        current = start_asn
        while True:
            time_ms += float(self.rng.exponential(self._mean_interval_ms))
            if time_ms >= horizon_ms:
                return moves
            nxt = self.next_attachment(current)
            moves.append(MoveEvent(time_ms, guid, current, nxt))
            current = nxt

    def moves_for_population(
        self,
        homes: Dict[GUID, int],
        horizon_ms: float,
        start_ms: float = 0.0,
    ) -> List[MoveEvent]:
        """Merged, time-sorted move schedule for a host population."""
        moves: List[MoveEvent] = []
        for guid, home in homes.items():
            moves.extend(self.moves_for_host(guid, home, horizon_ms, start_ms))
        moves.sort(key=lambda m: m.time_ms)
        return moves

