"""DNS-like hierarchical resolution baseline (§II-B).

"Since it relies on extensive caching, DNS cannot deal with fast updates"
(§II-B).  This baseline models an iterative hierarchical resolver:

* a small set of **root/TLD server ASs** (high-degree core networks);
* an **authoritative server** in the GUID's home AS;
* a per-source **resolver cache** with TTL.

A cache hit answers in the intra-AS round trip.  A miss performs the
iterative walk — resolver→root, resolver→TLD, resolver→authoritative —
three round trips from the querying AS.  The scheme's weakness under
mobility is *staleness*: a cached binding does not see updates until its
TTL expires, so the fraction of stale answers grows with the host's move
rate, which is exactly why the paper rules DNS out for dynamic GUIDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..core.guid import GUID, NetworkAddress
from ..core.mapping import MappingEntry, MappingStore
from ..errors import ConfigurationError, MappingNotFoundError
from ..topology.routing import Router
from .base import BaselineLookup, BaselineResolver


@dataclass
class _CacheSlot:
    entry: MappingEntry
    expires_at_ms: float


class DNSLike(BaselineResolver):
    """Iterative hierarchical resolver with TTL caches.

    Parameters
    ----------
    router:
        Underlay latency oracle.
    n_roots:
        Number of root/TLD anycast sites; the highest-degree ASs host
        them, and a querier uses the closest.
    ttl_ms:
        Cache lifetime of a resolved binding.
    """

    name = "dns-like"

    def __init__(
        self,
        router: Router,
        n_roots: int = 13,
        ttl_ms: float = 60_000.0,
    ) -> None:
        if n_roots < 1:
            raise ConfigurationError("need at least one root server")
        if ttl_ms < 0:
            raise ConfigurationError("ttl_ms must be non-negative")
        self.router = router
        self.ttl_ms = ttl_ms
        topo = router.topology
        by_degree = sorted(topo.asns(), key=lambda a: (-topo.degree(a), a))
        self.root_asns = by_degree[: min(n_roots, len(by_degree))]
        self._authoritative: Dict[GUID, int] = {}
        self.stores: Dict[int, MappingStore] = {}
        self._caches: Dict[int, Dict[GUID, _CacheSlot]] = {}
        self.now_ms = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.stale_answers = 0

    # ------------------------------------------------------------------
    def advance_time(self, delta_ms: float) -> None:
        """Advance the resolver's clock (drives TTL expiry)."""
        if delta_ms < 0:
            raise ConfigurationError("time cannot go backwards")
        self.now_ms += delta_ms

    def _store_at(self, asn: int) -> MappingStore:
        store = self.stores.get(asn)
        if store is None:
            store = MappingStore(owner_asn=asn)
            self.stores[asn] = store
        return store

    def _closest_root(self, source_asn: int) -> int:
        asn, _latency = self.router.closest_of(source_asn, self.root_asns)
        return asn

    # ------------------------------------------------------------------
    def insert(
        self, guid: GUID, locators: Sequence[NetworkAddress], source_asn: int
    ) -> float:
        """Write the authoritative record (home-AS anchored, like DNS
        zones).  Already-cached copies elsewhere stay stale until expiry."""
        auth = self._authoritative.setdefault(guid, source_asn)
        store = self._store_at(auth)
        previous = store.get(guid)
        version = 0 if previous is None else previous.version + 1
        store.insert(MappingEntry(guid, tuple(locators), version, self.now_ms))
        return self.router.rtt_ms(source_asn, auth)

    def lookup(self, guid: GUID, source_asn: int) -> BaselineLookup:
        """Resolve via cache or the iterative root→TLD→authoritative walk."""
        cache = self._caches.setdefault(source_asn, {})
        slot = cache.get(guid)
        if slot is not None and slot.expires_at_ms > self.now_ms:
            self.cache_hits += 1
            auth = self._authoritative.get(guid)
            live = self._store_at(auth).get(guid) if auth is not None else None
            if live is not None and live.version > slot.entry.version:
                self.stale_answers += 1
            rtt = 2.0 * self.router.intra_ms(source_asn)
            return BaselineLookup(slot.entry.locators, rtt, overlay_hops=0)

        self.cache_misses += 1
        auth = self._authoritative.get(guid)
        if auth is None:
            raise MappingNotFoundError(guid)
        entry = self._store_at(auth).get(guid)
        if entry is None:
            raise MappingNotFoundError(guid, auth)
        root = self._closest_root(source_asn)
        # Iterative resolution: referral from the root tier (modelled as
        # two round trips — root + TLD at the same site class) and the
        # authoritative query.
        rtt = 2.0 * self.router.rtt_ms(source_asn, root) + self.router.rtt_ms(
            source_asn, auth
        )
        cache[guid] = _CacheSlot(entry, self.now_ms + self.ttl_ms)
        return BaselineLookup(entry.locators, rtt, overlay_hops=3)
