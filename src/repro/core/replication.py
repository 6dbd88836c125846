"""Replica placement bookkeeping and replica-selection policies.

DMap stores K copies of each mapping at the ASs that Algorithm 1 derives,
plus (optionally) a *local* copy at the AS the GUID currently attaches to
(§III-C).  At lookup time the querying node picks the replica expected to
respond fastest; the paper evaluates two selection criteria:

* ``"latency"`` — lowest estimated response time (their headline results;
  they note "the querying node has sufficient information to choose the
  location with the lowest response time", §IV-B.2);
* ``"hops"`` — least AS-path hop count, which is what BGP actually exposes
  today; the paper reports "similar results albeit with marginally
  increased latencies".
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..hashing.rehash import HashResolution
from ..topology.routing import Router
from .guid import GUID

#: Selection policies understood by :class:`ReplicaSelector`.
SELECTION_POLICIES = ("latency", "hops")


class ReplicaSet(NamedTuple):
    """Where the replicas of one GUID live right now.

    Attributes
    ----------
    guid:
        The mapped identifier.
    global_replicas:
        K resolutions in hash-function order (AS may repeat if two hash
        chains land in the same AS).
    local_asn:
        AS holding the additional local copy (§III-C), if enabled.
    generation:
        The placer's ``generation`` (its BGP table's state) at which
        ``global_replicas`` were resolved; ``None`` when unknown, e.g.
        for a set patched replica by replica after churn.  Only a stamped
        set whose stamp is still current may stand in for a fresh
        placement.
    """

    guid: GUID
    global_replicas: Tuple[HashResolution, ...]
    local_asn: Optional[int] = None
    generation: Optional[int] = None

    @property
    def global_asns(self) -> Tuple[int, ...]:
        """Hosting AS numbers of the K global replicas, in replica order."""
        return tuple(res.asn for res in self.global_replicas)

    @property
    def all_asns(self) -> Tuple[int, ...]:
        """Global replica ASs plus the local-copy AS (deduplicated,
        preserving order)."""
        seen: Dict[int, None] = {}
        for asn in self.global_asns:
            seen.setdefault(asn, None)
        if self.local_asn is not None:
            seen.setdefault(self.local_asn, None)
        return tuple(seen)


class ReplicaSelector:
    """Orders candidate replica ASs for a querying node.

    Parameters
    ----------
    router:
        Latency/hop oracle over the topology.
    policy:
        One of :data:`SELECTION_POLICIES`.
    """

    def __init__(self, router: Router, policy: str = "latency") -> None:
        if policy not in SELECTION_POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r}; expected one of {SELECTION_POLICIES}"
            )
        self.router = router
        self.policy = policy

    def ranked(
        self, source_asn: int, candidate_asns: Sequence[int]
    ) -> List[Tuple[int, float]]:
        """``(asn, one_way_ms)`` per distinct candidate, best-first under
        the policy.

        Duplicates are removed (two hash functions landing in one AS give
        a single queryable host).  The order determines the retry sequence
        after a timeout or a "GUID missing" reply (§III-D.3); equal keys
        keep candidate order.  ``one_way_ms`` is
        :meth:`Router.one_way_costs`' value, ``inf`` when unreachable.
        """
        unique = list(dict.fromkeys(candidate_asns))
        if not unique:
            raise ConfigurationError("no candidate replicas to order")
        one_way = self.router.one_way_costs(source_asn, unique)
        keys = (
            one_way
            if self.policy == "latency"
            else self.router.hop_costs(source_asn, unique)
        )
        order = sorted(range(len(unique)), key=keys.__getitem__)
        return [(unique[i], one_way[i]) for i in order]

    def order_candidates(
        self, source_asn: int, candidate_asns: Sequence[int]
    ) -> List[int]:
        """Candidates sorted best-first under the policy (see
        :meth:`ranked`)."""
        return [asn for asn, _ in self.ranked(source_asn, candidate_asns)]
