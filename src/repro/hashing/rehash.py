"""Algorithm 1: hashing a GUID into *announced* address space.

About 45-48% of the IPv4 space is unannounced (§III-B), so a hashed value
frequently lands in an *IP hole*.  The border gateway then re-hashes up to
``M - 1`` times; if every attempt still lands in a hole it falls back to
the *deputy AS* — the AS announcing the prefix with minimum IP (XOR)
distance to the final hashed value.  The paper reports the probability of
exhausting M = 10 rehashes is ≈ 0.034% at a 55% announcement ratio
(0.45^10), so deputy fallback is rare; the residual load skew it causes is
what keeps the median NLR slightly above 1 (Fig. 6).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import List, NamedTuple, Union

from ..bgp.table import GlobalPrefixTable
from ..core.guid import GUID
from ..errors import ConfigurationError
from .hashers import HashFamily

#: Default maximum number of hash attempts (M in Algorithm 1).
DEFAULT_MAX_REHASHES = 10


class HashResolution(NamedTuple):
    """Outcome of resolving one GUID through one hash function."""

    #: The final hashed address value.
    address: int
    #: The AS that will host this replica.
    asn: int
    #: Number of hash applications used (1 = first hash announced).
    attempts: int
    #: Whether the deputy-AS fallback (nearest prefix) was needed.
    via_deputy: bool


class Placer(ABC):
    """The placement contract every engine relies on.

    A placer derives the K hosting ASs of any GUID locally, from the
    agreed hash family (and, for address-space hashing, the local BGP
    view) — the paper's "direct mapping" property (§III-A).  Every
    resolver, simulation, batch kernel and live node consumes placement
    through this interface only.

    ``generation`` names the state placement is derived from: a placement
    resolved at an equal generation is still the current one.  Placers
    that ignore the BGP table never go stale and keep generation 0.
    """

    generation = 0

    def __init__(self, hash_family: HashFamily) -> None:
        self.hash_family = hash_family

    @property
    def k(self) -> int:
        """Replication factor (number of hash functions)."""
        return self.hash_family.k

    @abstractmethod
    def resolve_one(self, guid: Union[GUID, int], index: int) -> HashResolution:
        """Placement of replica ``index`` of ``guid``."""

    @abstractmethod
    def resolve_all(self, guid: Union[GUID, int]) -> List[HashResolution]:
        """Placement of every replica of ``guid``, in hash-function order."""

    def hosting_asns(self, guid: Union[GUID, int]) -> List[int]:
        """Just the K hosting AS numbers, in replica order."""
        return [res.asn for res in self.resolve_all(guid)]


class GuidPlacer(Placer):
    """Applies Algorithm 1 for each of the K hash functions.

    This is the component every border gateway runs locally: it needs only
    the hash family (agreed upon beforehand) and the local BGP view.
    """

    def __init__(
        self,
        hash_family: HashFamily,
        table: GlobalPrefixTable,
        max_rehashes: int = DEFAULT_MAX_REHASHES,
    ) -> None:
        if max_rehashes < 1:
            raise ConfigurationError(f"max_rehashes must be >= 1, got {max_rehashes}")
        if hash_family.address_bits > table.bits:  # the chains skip range checks
            raise ConfigurationError("hash family is wider than the prefix table")
        super().__init__(hash_family)
        self.table = table
        self.max_rehashes = max_rehashes

    @property
    def generation(self) -> int:
        """The BGP table's mutation count: announcing into or withdrawing
        from it makes every earlier placement stale."""
        return self.table.generation

    def _resolve(self, values: List[int], first: int) -> List[HashResolution]:
        """Algorithm 1 from ``values[i]``, the first address of function
        ``first + i``, one pass per chain: each LPM bisects the table's
        owner list, a hole re-hashes, an exhausted chain takes the deputy."""
        bounds, owners = self.table.owner_list()
        rehash, max_rehashes, out = self.hash_family.rehash, self.max_rehashes, []
        for index, value in enumerate(values, first):
            attempt = 1
            asn = owners[bisect_right(bounds, value) - 1]
            while asn is None and attempt < max_rehashes:
                value = rehash(value, index)
                attempt += 1
                asn = owners[bisect_right(bounds, value) - 1]
            deputy = asn is None
            if deputy:
                asn = self.table.nearest(value)[0].asn
            out.append(HashResolution(value, asn, attempt, deputy))
        return out

    def resolve_one(self, guid: Union[GUID, int], index: int) -> HashResolution:
        """Algorithm 1 for hash function ``index``."""
        return self._resolve([self.hash_family.hash_one(guid, index)], index)[0]

    def resolve_all(self, guid: Union[GUID, int]) -> List[HashResolution]:
        """Hosting resolution for every replica of ``guid``.

        The K resolutions are independent: replica ``i`` re-hashes with
        function ``i`` only, so a hole in one chain does not perturb the
        others.  Duplicate ASs across replicas are possible (two hash
        functions may land in the same AS) and are preserved — the caller
        decides whether to de-duplicate storage.  The K first addresses
        come from one :meth:`HashFamily.hash_all` call.
        """
        return self._resolve(self.hash_family.hash_all(guid), 0)


def hole_probability(announcement_ratio: float, max_rehashes: int) -> float:
    """Probability all M hashes land in holes: ``(1 - ratio)**M``.

    Matches the paper's example: ratio 0.55, M = 10 → ≈ 0.034%.
    """
    if not 0.0 <= announcement_ratio <= 1.0:
        raise ConfigurationError("announcement_ratio must lie in [0, 1]")
    if max_rehashes < 1:
        raise ConfigurationError("max_rehashes must be >= 1")
    return (1.0 - announcement_ratio) ** max_rehashes
