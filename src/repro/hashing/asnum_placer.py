"""Alternative placement schemes from the paper's future-work list (§VII).

"In further work, we plan to consider other variations of the proposed
DMap distribution scheme — for example GUIDs can be hashed directly to AS
numbers or allocation sizes can be varied to reflect economic incentives
at ASs."

Two placers implementing the same interface as
:class:`~repro.hashing.rehash.GuidPlacer` (``k``, ``resolve_one``,
``resolve_all``, ``hosting_asns``), so the resolver and the simulation can
swap them in:

* :class:`ASNumberPlacer` — hash the GUID directly onto the participant
  list.  No IP holes, no rehashing; storage load becomes uniform *per AS*
  instead of proportional to announced address space.
* :class:`WeightedASPlacer` — hash onto an explicit weight distribution
  over ASs (e.g. negotiated hosting contracts), implemented with
  rendezvous-free cumulative-weight hashing.  Setting weights proportional
  to announced space recovers baseline DMap's load profile; setting them
  to payment tiers realizes the economic-incentive variant.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.guid import GUID
from ..errors import ConfigurationError
from .hashers import HashFamily, Sha256Hasher
from .rehash import HashResolution

GuidLike = Union[GUID, int]


class ASNumberPlacer:
    """Hash GUIDs directly to AS numbers (uniformly over participants).

    Each of the K hash functions selects one AS from the sorted
    participant list.  The ``address`` recorded in the resolution is the
    participant *index* — there is no underlying IP address, which is
    exactly the variant's point: placement no longer depends on the BGP
    table at all (at the cost of needing an agreed participant roster).
    """

    #: Placement ignores the BGP table, so a resolved placement never
    #: goes stale (see :attr:`GuidPlacer.generation`).
    generation = 0

    def __init__(
        self,
        asns: Sequence[int],
        k: int = 5,
        hash_family: Optional[HashFamily] = None,
    ) -> None:
        if not asns:
            raise ConfigurationError("need at least one participating AS")
        self.asns = sorted(set(int(a) for a in asns))
        self.hash_family = hash_family or Sha256Hasher(
            k, address_bits=64, salt=b"dmap-asnum"
        )
        if self.hash_family.k != k:
            raise ConfigurationError("hash_family.k must equal k")

    @property
    def k(self) -> int:
        """Replication factor."""
        return self.hash_family.k

    def resolve_one(self, guid: GuidLike, index: int) -> HashResolution:
        """Pick the AS for replica ``index`` of ``guid``."""
        slot = self.hash_family.hash_one(guid, index) % len(self.asns)
        return HashResolution(
            address=slot, asn=self.asns[slot], attempts=1, via_deputy=False
        )

    def resolve_all(self, guid: GuidLike) -> List[HashResolution]:
        """All K replica placements."""
        return [self.resolve_one(guid, i) for i in range(self.k)]

    def hosting_asns(self, guid: GuidLike) -> List[int]:
        """Hosting AS numbers in replica order."""
        return [res.asn for res in self.resolve_all(guid)]


class WeightedASPlacer:
    """Hash GUIDs to ASs proportionally to explicit hosting weights.

    A 64-bit hash is mapped through the cumulative weight distribution, so
    AS ``i`` receives a ``w_i / sum(w)`` share of replicas in expectation.
    Deterministic, locally computable from the agreed (asn, weight) list.
    """

    #: Placement ignores the BGP table, so a resolved placement never
    #: goes stale (see :attr:`GuidPlacer.generation`).
    generation = 0

    def __init__(
        self,
        weights: Dict[int, float],
        k: int = 5,
        hash_family: Optional[HashFamily] = None,
    ) -> None:
        if not weights:
            raise ConfigurationError("need at least one weighted AS")
        if any(w < 0 for w in weights.values()):
            raise ConfigurationError("weights must be non-negative")
        total = float(sum(weights.values()))
        if total <= 0:
            raise ConfigurationError("total weight must be positive")
        self.asns = sorted(weights)
        cumulative = np.cumsum([weights[a] / total for a in self.asns])
        cumulative[-1] = 1.0  # guard against float drift
        self._cumulative = cumulative
        self.hash_family = hash_family or Sha256Hasher(
            k, address_bits=64, salt=b"dmap-weighted"
        )
        if self.hash_family.k != k:
            raise ConfigurationError("hash_family.k must equal k")

    @property
    def k(self) -> int:
        """Replication factor."""
        return self.hash_family.k

    def share_of(self, asn: int) -> float:
        """Expected replica share of ``asn``."""
        idx = bisect.bisect_left(self.asns, asn)
        if idx >= len(self.asns) or self.asns[idx] != asn:
            raise ConfigurationError(f"AS {asn} is not a participant")
        lower = self._cumulative[idx - 1] if idx > 0 else 0.0
        return float(self._cumulative[idx] - lower)

    def resolve_one(self, guid: GuidLike, index: int) -> HashResolution:
        """Pick the AS for replica ``index`` of ``guid``."""
        draw = self.hash_family.hash_one(guid, index) / float(1 << 64)
        slot = int(np.searchsorted(self._cumulative, draw, side="right"))
        slot = min(slot, len(self.asns) - 1)
        return HashResolution(
            address=slot, asn=self.asns[slot], attempts=1, via_deputy=False
        )

    def resolve_all(self, guid: GuidLike) -> List[HashResolution]:
        """All K replica placements."""
        return [self.resolve_one(guid, i) for i in range(self.k)]

    def hosting_asns(self, guid: GuidLike) -> List[int]:
        """Hosting AS numbers in replica order."""
        return [res.asn for res in self.resolve_all(guid)]
