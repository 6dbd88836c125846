"""Alternative placement schemes from the paper's future-work list (§VII).

"In further work, we plan to consider other variations of the proposed
DMap distribution scheme — for example GUIDs can be hashed directly to AS
numbers or allocation sizes can be varied to reflect economic incentives
at ASs."

Two roster placers implementing :class:`~repro.hashing.rehash.Placer`, so
the resolver, the simulation and the batch engine can swap them in:

* :class:`ASNumberPlacer` — hash the GUID directly onto the participant
  list.  No IP holes, no rehashing; storage load becomes uniform *per AS*
  instead of proportional to announced address space.
* :class:`WeightedASPlacer` — hash onto an explicit weight distribution
  over ASs (e.g. negotiated hosting contracts), implemented with
  rendezvous-free cumulative-weight hashing.  Setting weights proportional
  to announced space recovers baseline DMap's load profile; setting them
  to payment tiers realizes the economic-incentive variant.

They differ only in :meth:`RosterPlacer.slots`, how a hash value picks a
roster slot; the scalar placers and the batch kernel share it.
"""

from __future__ import annotations

import bisect
from abc import abstractmethod
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.guid import GUID
from ..errors import ConfigurationError
from .hashers import HashFamily, Sha256Hasher
from .rehash import HashResolution, Placer

GuidLike = Union[GUID, int]


class RosterPlacer(Placer):
    """Hash each replica onto one slot of an agreed, sorted AS roster.

    The ``address`` recorded in a resolution is the roster *slot* — there
    is no underlying IP address, which is exactly the variants' point:
    placement no longer depends on the BGP table at all (at the cost of
    needing an agreed participant roster), so it never goes stale
    (``generation`` stays 0).
    """

    def __init__(
        self,
        asns: List[int],
        k: int,
        hash_family: Optional[HashFamily],
        salt: bytes,
    ) -> None:
        super().__init__(hash_family or Sha256Hasher(k, address_bits=64, salt=salt))
        if self.hash_family.k != k:
            raise ConfigurationError("hash_family.k must equal k")
        self.asns = asns
        self.roster = np.asarray(asns, dtype=np.int64)

    @abstractmethod
    def slots(self, hashes: np.ndarray) -> np.ndarray:
        """Roster slot of each ``uint64`` hash value."""

    def _resolutions(self, hashes: List[int]) -> List[HashResolution]:
        slots = self.slots(np.asarray(hashes, dtype=np.uint64)).tolist()
        return [HashResolution(slot, self.asns[slot], 1, False) for slot in slots]

    def resolve_one(self, guid: GuidLike, index: int) -> HashResolution:
        """Pick the AS for replica ``index`` of ``guid``."""
        return self._resolutions([self.hash_family.hash_one(guid, index)])[0]

    def resolve_all(self, guid: GuidLike) -> List[HashResolution]:
        """All K replica placements."""
        return self._resolutions(self.hash_family.hash_all(guid))


class ASNumberPlacer(RosterPlacer):
    """Hash GUIDs directly to AS numbers (uniformly over participants):
    each of the K hash functions selects one AS of the sorted participant
    list."""

    def __init__(
        self,
        asns: Sequence[int],
        k: int = 5,
        hash_family: Optional[HashFamily] = None,
    ) -> None:
        if not asns:
            raise ConfigurationError("need at least one participating AS")
        roster = sorted(set(int(a) for a in asns))
        super().__init__(roster, k, hash_family, b"dmap-asnum")

    def slots(self, hashes: np.ndarray) -> np.ndarray:
        """The hash modulo the roster size."""
        return hashes % np.uint64(len(self.asns))


class WeightedASPlacer(RosterPlacer):
    """Hash GUIDs to ASs proportionally to explicit hosting weights.

    A 64-bit hash is mapped through the cumulative weight distribution, so
    AS ``i`` receives a ``w_i / sum(w)`` share of replicas in expectation.
    Deterministic, locally computable from the agreed (asn, weight) list.
    """

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
        roster = sorted(weights)
        super().__init__(roster, k, hash_family, b"dmap-weighted")
        cumulative = np.cumsum([weights[a] / total for a in roster])
        cumulative[-1] = 1.0  # guard against float drift
        self._cumulative = cumulative

    def share_of(self, asn: int) -> float:
        """Expected replica share of ``asn``."""
        idx = bisect.bisect_left(self.asns, asn)
        if idx >= len(self.asns) or self.asns[idx] != asn:
            raise ConfigurationError(f"AS {asn} is not a participant")
        lower = self._cumulative[idx - 1] if idx > 0 else 0.0
        return float(self._cumulative[idx] - lower)

    def slots(self, hashes: np.ndarray) -> np.ndarray:
        """The hash, scaled to [0, 1), through the cumulative weights."""
        draws = hashes.astype(np.float64) / float(1 << 64)
        slots = np.searchsorted(self._cumulative, draws, side="right")
        return np.minimum(slots, len(self.asns) - 1)
