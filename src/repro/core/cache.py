"""In-network caching on top of basic DMap (§VII future work).

"We also plan to extend the scope of this work by studying a feasible
in-network caching method that builds on top of the basic DMap scheme."

Each AS gateway keeps a TTL-bounded cache of recently resolved bindings.
A cache hit answers in the intra-AS round trip; a miss resolves through
DMap and caches the result.  Because mobility makes cached bindings go
stale (the §II-B "low staleness" requirement that disqualifies DNS), the
cache is *version-aware*: a stale answer is detectable after the fact
(the locator stops working, §III-D.2), at which point the querier
invalidates and re-resolves — the cost model charges that round trip.

``TestAblations`` in ``tests/test_experiments.py`` checks the resulting
hit-rate / staleness / latency triangle against the no-cache baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..core.guid import GUID, guid_like
from ..core.mapping import MappingEntry
from ..errors import ConfigurationError
from .resolver import AvailabilityProbe, DMapResolver, LookupResult


@dataclass
class CacheStats:
    """Counters for one caching gateway layer."""

    hits: int = 0
    misses: int = 0
    stale_hits: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def staleness_rate(self) -> float:
        """Fraction of cache hits that served an obsolete binding."""
        return self.stale_hits / self.hits if self.hits else 0.0


@dataclass
class _CacheSlot:
    entry: MappingEntry
    expires_at_ms: float


class CachingResolver:
    """Per-AS query cache layered over a :class:`DMapResolver`.

    Parameters
    ----------
    resolver:
        The underlying DMap resolver (shared; the cache adds no replicas).
    ttl_ms:
        Cache entry lifetime.  The TTL bounds staleness: with mean update
        interval T_u, the stale-hit probability is roughly
        ``1 - (T_u/TTL)(1 - exp(-TTL/T_u))`` — the same tradeoff the
        paper's §II-B holds against DNS, now tunable per deployment.

    Notes
    -----
    The wrapper keeps a virtual clock (``now_ms``) advanced by the caller,
    so experiments control the interleaving of queries and moves.
    """

    def __init__(self, resolver: DMapResolver, ttl_ms: float = 10_000.0) -> None:
        if ttl_ms < 0:
            raise ConfigurationError("ttl_ms must be non-negative")
        self.resolver = resolver
        self.ttl_ms = ttl_ms
        self.now_ms = 0.0
        self._caches: Dict[int, Dict[GUID, _CacheSlot]] = {}
        self.stats = CacheStats()

    def advance_time(self, delta_ms: float) -> None:
        """Advance the cache clock (drives TTL expiry)."""
        if delta_ms < 0:
            raise ConfigurationError("time cannot go backwards")
        self.now_ms += delta_ms

    def _cache_of(self, asn: int) -> Dict[GUID, _CacheSlot]:
        cache = self._caches.get(asn)
        if cache is None:
            cache = {}
            self._caches[asn] = cache
        return cache

    def lookup(
        self,
        guid: Union[GUID, int, str],
        source_asn: int,
        probe: Optional[AvailabilityProbe] = None,
    ) -> Tuple[LookupResult, bool]:
        """Resolve through the cache.

        Returns ``(result, was_cached)``.  A *fresh-but-stale* cache hit
        (binding superseded since it was cached) is detected when the
        caller tries to use the locator; this model charges the detection
        immediately: the stale hit pays its fast local answer, is counted
        in :attr:`CacheStats.stale_hits`, the slot is invalidated, and the
        authoritative re-resolution's RTT is added on top — the total is
        what a real querier would experience (§III-D.2 "mark the mapping
        as obsolete, and keep checking").
        """
        guid = guid_like(guid)
        cache = self._cache_of(source_asn)
        slot = cache.get(guid)
        intra_rtt = 2.0 * self.resolver.router.topology.intra_latency(source_asn)

        if slot is not None and slot.expires_at_ms > self.now_ms:
            fresh = self._authoritative_version(guid)
            if fresh is None or slot.entry.version >= fresh:
                self.stats.hits += 1
                result = LookupResult(
                    slot.entry, intra_rtt, source_asn, (), used_local=True
                )
                return result, True
            # Stale: fast wrong answer, then detect + re-resolve.
            self.stats.hits += 1
            self.stats.stale_hits += 1
            self.stats.invalidations += 1
            del cache[guid]
            authoritative = self.resolver.lookup(guid, source_asn, probe=probe)
            cache[guid] = _CacheSlot(
                authoritative.entry, self.now_ms + self.ttl_ms
            )
            combined = LookupResult(
                authoritative.entry,
                intra_rtt + authoritative.rtt_ms,
                authoritative.served_by,
                authoritative.attempts,
                authoritative.used_local,
            )
            return combined, True

        self.stats.misses += 1
        result = self.resolver.lookup(guid, source_asn, probe=probe)
        cache[guid] = _CacheSlot(result.entry, self.now_ms + self.ttl_ms)
        return result, False

    def _authoritative_version(self, guid: GUID) -> Optional[int]:
        """Current binding version, if the resolver tracks this GUID."""
        replica_set = self.resolver.replica_sets.get(guid)
        if replica_set is None:
            return None
        versions = [
            entry.version
            for asn in replica_set.all_asns
            if (entry := self.resolver.store_at(asn).get(guid)) is not None
        ]
        return max(versions) if versions else None

    def invalidate(self, guid: Union[GUID, int, str], asn: Optional[int] = None) -> int:
        """Drop cached copies of ``guid`` (everywhere, or at one AS)."""
        guid = guid_like(guid)
        removed = 0
        caches = [self._caches[asn]] if asn is not None and asn in self._caches else (
            list(self._caches.values()) if asn is None else []
        )
        for cache in caches:
            if cache.pop(guid, None) is not None:
                removed += 1
        self.stats.invalidations += removed
        return removed

    def cached_entries(self) -> int:
        """Total live cache slots across all ASs."""
        return sum(len(c) for c in self._caches.values())
