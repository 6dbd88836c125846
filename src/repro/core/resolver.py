"""The DMap resolver: GUID Insert / Update / Lookup over shared hosting.

This is the paper's contribution (§III).  A border gateway receiving a
request:

1. applies the K agreed-upon hash functions to the GUID;
2. resolves each hashed value to an announced prefix via its BGP table,
   re-hashing through IP holes (Algorithm 1);
3. sends the insert/update to all K hosting ASs *in parallel* — the update
   latency is the **max** of the K round trips — or sends the lookup to
   the best replica, falling back to the next ones on failure: the lookup
   latency is the round trip to the chosen replica, plus any failed
   attempts before it (§III-A, §III-D.3);
4. optionally maintains an extra *local* replica in the GUID's current
   attachment AS, queried in parallel with the global lookup (§III-C).

:class:`DMapResolver` executes this protocol instantly and *accounts* for
the time each step would take on the topology (the same arithmetic the
paper's event simulator performs); :mod:`repro.sim` replays the identical
protocol through a true discrete-event engine with queues and timeouts,
and the two are cross-checked in the test suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..bgp.table import GlobalPrefixTable
from ..errors import ConfigurationError, LookupFailedError, MappingNotFoundError
from ..hashing.hashers import Sha256Hasher
from ..hashing.rehash import GuidPlacer, HashResolution, Placer
from ..obs.trace import (
    FAILURE_EXHAUSTED,
    NULL_TRACER,
    OUTCOME_HIT,
    OUTCOME_MISSING,
    OUTCOME_TIMEOUT,
    AttemptTrace,
    QueryTrace,
    Tracer,
    placement_records,
)
from ..topology.routing import Router
from .guid import GUID, NetworkAddress, guid_like
from .mapping import MappingEntry, MappingStore
from .replication import ReplicaSelector, ReplicaSet

#: Paper-informed retry timeout: WiFi/IP handoff protocols are "on the
#: order of 0.5-1 second" (§IV-B.2a); we time out a dead replica at 1 s.
DEFAULT_TIMEOUT_MS = 1000.0


def adaptive_timeout_ms(
    floor_ms: float, rtt_ms: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """The §III-D.3 adaptive replica timeout: never below the floor, never
    below twice the expected RTT.  A float for a scalar ``rtt_ms``; an
    elementwise array for an array."""
    if isinstance(rtt_ms, np.ndarray):
        return np.maximum(floor_ms, 2.0 * rtt_ms)
    return max(floor_ms, 2.0 * rtt_ms)


def local_branch_end_ms(
    router: Router, source_asn: int, querier_down: bool, floor_ms: float
) -> float:
    """When the §III-C local reply lands at ``source_asn``.

    A down querier's own mapping service swallows the local request, so
    the adaptive timer on ``rtt(source, source)`` expires instead;
    otherwise the reply takes that intra-AS round trip.
    """
    rtt = 2.0 * router.intra_ms(source_asn)
    return adaptive_timeout_ms(floor_ms, rtt) if querier_down else rtt


class FailureModel:
    """Base failure model: everything works.

    The one availability seam of every engine (resolver, fastpath, DES):
    BGP-churn staleness and router failures (Fig. 5, §III-D) are
    subclasses in :mod:`repro.sim.failures`.
    """

    def lookup_outcome(self, asn: int, guid: GUID) -> str:
        """Fate of a lookup arriving at a *global* replica of ``guid``.

        One of ``OUTCOME_HIT``, ``OUTCOME_MISSING`` or
        ``OUTCOME_TIMEOUT``.  Local-replica reads are not subject to churn
        staleness (the querier shares the AS and thus the BGP view) but
        do honour :meth:`is_down`.
        """
        return OUTCOME_HIT

    def is_down(self, asn: int) -> bool:
        """Whether the AS's mapping service is unresponsive."""
        return False


class LookupResult(NamedTuple):
    """Outcome of a successful GUID lookup.

    Attributes
    ----------
    entry:
        The mapping that was found.
    rtt_ms:
        Full round-trip response time, including failed attempts.
    served_by:
        AS that answered.
    attempts:
        Every replica contacted, in order.
    used_local:
        Whether the parallel local-replica query won the race (§III-C).
    """

    entry: MappingEntry
    rtt_ms: float
    served_by: int
    attempts: Tuple[AttemptTrace, ...]
    used_local: bool

    @property
    def locators(self) -> Tuple[NetworkAddress, ...]:
        """Locators bound to the GUID."""
        return self.entry.locators


class WriteResult(NamedTuple):
    """Outcome of an insert or update.

    ``rtt_ms`` is the slowest of the K parallel replica writes — the time
    after which the new binding is globally visible (§III-A).
    """

    replica_set: ReplicaSet
    rtt_ms: float
    per_replica_rtt_ms: Tuple[float, ...]


class DMapResolver:
    """In-memory execution of the DMap protocol over a topology + BGP table.

    Parameters
    ----------
    table:
        Global BGP prefix table (every gateway's routing view).
    router:
        Latency/hop oracle; also identifies the participating ASs.
    k:
        Replication factor of the default placer (ignored if ``placer``
        is given).
    selection_policy:
        Replica-choice criterion: ``"latency"`` (paper default) or
        ``"hops"``.
    local_replica:
        Maintain the extra attachment-AS copy of §III-C.
    timeout_ms:
        Floor for the adaptive replica timeout (§III-D.3).
    placer:
        Override the placement scheme with another
        :class:`~repro.hashing.rehash.Placer` (e.g. the §VII variants in
        :mod:`repro.hashing.asnum_placer`).  Defaults to address-space
        hashing (Algorithm 1) with K salted SHA-256 functions.  Writes
        and lookups reuse a GUID's stored placement while the placer's
        ``generation`` is unchanged.
    tracer:
        Per-query trace sink (:mod:`repro.obs`).  Defaults to the shared
        no-op tracer, which the lookup path checks once per call.
    """

    def __init__(
        self,
        table: GlobalPrefixTable,
        router: Router,
        k: int = 5,
        selection_policy: str = "latency",
        local_replica: bool = True,
        timeout_ms: float = DEFAULT_TIMEOUT_MS,
        placer: Optional[Placer] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if timeout_ms <= 0:
            raise ConfigurationError("timeout_ms must be positive")
        self.table = table
        self.router = router
        self.placer = placer or GuidPlacer(
            Sha256Hasher(k, address_bits=table.bits), table
        )
        self.selector = ReplicaSelector(router, selection_policy)
        self.local_replica = local_replica
        self.timeout_ms = timeout_ms
        # Explicit None check: an empty CollectingTracer is falsy (len 0).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stores: Dict[int, MappingStore] = {}
        # Instrumentation: current placement of every inserted GUID.  Real
        # DMap routers derive this statelessly; the registry exists so
        # experiments and the churn protocol can enumerate affected GUIDs,
        # and so _placement can skip re-deriving a still-current placement.
        self.replica_sets: Dict[GUID, ReplicaSet] = {}

    # ------------------------------------------------------------------
    # Store plumbing
    # ------------------------------------------------------------------
    def store_at(self, asn: int) -> MappingStore:
        """The mapping store of ``asn`` (created on first use)."""
        store = self.stores.get(asn)
        if store is None:
            store = MappingStore(owner_asn=asn)
            self.stores[asn] = store
        return store

    @property
    def k(self) -> int:
        """Replication factor."""
        return self.placer.k

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def insert(
        self,
        guid: Union[GUID, int, str],
        locators: Sequence[NetworkAddress],
        source_asn: int,
        time: float = 0.0,
    ) -> WriteResult:
        """GUID Insert: create the binding at the K derived ASs.

        ``source_asn`` is the AS the host is attached to; with
        ``local_replica`` enabled it also receives a copy (§III-C).
        """
        guid = guid_like(guid)
        entry = MappingEntry(guid, tuple(locators), version=0, timestamp=time)
        return self._write(entry, source_asn)

    def update(
        self,
        guid: Union[GUID, int, str],
        locators: Sequence[NetworkAddress],
        source_asn: int,
        time: float = 0.0,
    ) -> WriteResult:
        """GUID Update: re-bind after a move / locator change.

        Processed like an insert (§III-A); the version is advanced past
        the newest replica we previously wrote so stale copies lose.
        """
        guid = guid_like(guid)
        version = 0
        retired: Optional[int] = None
        previous = self.replica_sets.get(guid)
        if previous is not None:
            freshest = self.freshest_copy(previous)
            if freshest is not None:
                version = freshest.version + 1
            if previous.local_asn != source_asn:
                # The host left its old AS; the old local copy is retired.
                retired = previous.local_asn
        entry = MappingEntry(guid, tuple(locators), version=version, timestamp=time)
        return self._write(entry, source_asn, retired)

    def freshest_copy(self, replica_set: ReplicaSet) -> Optional[MappingEntry]:
        """The newest stored copy of ``replica_set``'s GUID (the first at a
        tie, in replica order and then the local copy), or ``None``."""
        asns = [res.asn for res in replica_set.global_replicas]
        if replica_set.local_asn is not None:
            asns.append(replica_set.local_asn)
        best: Optional[MappingEntry] = None
        for asn in asns:
            entry = self.store_at(asn).get(replica_set.guid)
            if entry is not None and (best is None or entry.version > best.version):
                best = entry
        return best

    def _placement(self, guid: GUID) -> Sequence[HashResolution]:
        """The K resolutions of ``guid`` under the current BGP view.

        The placement stored by the last write is reused while its stamp
        equals ``placer.generation`` (the table has not been announced
        into or withdrawn from since); otherwise it is derived afresh.
        """
        replica_set = self.replica_sets.get(guid)
        if (
            replica_set is not None
            and replica_set.generation == self.placer.generation
        ):
            return replica_set.global_replicas
        return self.placer.resolve_all(guid)

    def _write(
        self, entry: MappingEntry, source_asn: int, retired: Optional[int] = None
    ) -> WriteResult:
        """Write ``entry`` to its K replicas and local copy, after deleting
        it at ``retired``.  All K RTTs are priced first: a write to an
        unreachable replica raises with every store left as it was."""
        generation = self.placer.generation
        resolutions = self._placement(entry.guid)
        asns = [res.asn for res in resolutions]
        rtts = [
            2.0 * self.router.reached(source_asn, asn, one_way)
            for asn, one_way in zip(asns, self.router.one_way_costs(source_asn, asns))
        ]
        if retired is not None:
            self.store_at(retired).delete(entry.guid)
        for asn in asns:
            self.store_at(asn).insert(entry)
        local_asn: Optional[int] = None
        if self.local_replica:
            local_asn = source_asn
            self.store_at(source_asn).insert(entry)
            # Local write is intra-AS; it never dominates the parallel max.
        replica_set = ReplicaSet(
            entry.guid, tuple(resolutions), local_asn, generation=generation
        )
        self.replica_sets[entry.guid] = replica_set
        return WriteResult(replica_set, max(rtts), tuple(rtts))

    def delete(self, guid: Union[GUID, int, str]) -> int:
        """Remove a GUID's replicas everywhere; returns copies deleted."""
        guid = guid_like(guid)
        replica_set = self.replica_sets.pop(guid, None)
        removed = 0
        asns: Iterable[int]
        if replica_set is not None:
            asns = replica_set.all_asns
        else:  # stateless fallback: derive from hashing
            asns = set(self.placer.hosting_asns(guid))
        for asn in asns:
            if self.store_at(asn).delete(guid):
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def lookup(
        self,
        guid: Union[GUID, int, str],
        source_asn: int,
        failure_model: Optional[FailureModel] = None,
        time: float = 0.0,
    ) -> LookupResult:
        """GUID Lookup from a host attached to ``source_asn``.

        The local and global lookups race in parallel (§III-C); the global
        side walks replicas best-first, paying a full round trip for each
        "GUID missing" reply and the adaptive timeout for each dead AS
        (§III-D.3).  ``failure_model`` injects churn/failure outcomes at
        the global replicas; by default every replica that stores the
        mapping answers.  Its ``is_down`` only matters for the querier's
        own AS here (a down *replica* is a timeout outcome), mirroring the
        DES where a down source swallows the local-branch request.

        The local branch is only launched when the source AS is not
        itself a global candidate (otherwise the global walk covers it),
        and ties go to the local reply — in the event simulation the
        local request is issued first, so at equal arrival times its
        response is scheduled, and therefore delivered, first.

        A "GUID missing" reply from a replica that *should* host the
        mapping triggers the §III-D.1 lazy migration pull, exactly like
        the DES's genuine-miss hook; the pull is asynchronous and adds no
        latency to this lookup.

        Raises
        ------
        LookupFailedError
            If every replica fails.  The elapsed time accounts for the
            slower of the two branches: the failed global walk and the
            local miss (or local timeout, when the source AS is down).
        """
        guid = guid_like(guid)
        resolutions = self._placement(guid)
        candidates = [res.asn for res in resolutions]
        ranked = self.selector.ranked(source_asn, candidates)

        # Parallel local branch: a same-AS copy answers in the intra-AS RTT.
        local_end: Optional[float] = None
        local_entry: Optional[MappingEntry] = None
        local_outcome: Optional[str] = None
        # Churn staleness does not affect the local branch: the querier and
        # the local store share one BGP view (same convention as the DES).
        if self.local_replica and source_asn not in candidates:
            down = failure_model is not None and failure_model.is_down(source_asn)
            local_end = local_branch_end_ms(
                self.router, source_asn, down, self.timeout_ms
            )
            if down:
                local_outcome = OUTCOME_TIMEOUT
            else:
                local_entry = self.store_at(source_asn).get(guid)
                local_outcome = (
                    OUTCOME_HIT if local_entry is not None else OUTCOME_MISSING
                )

        attempts: List[AttemptTrace] = []
        elapsed = 0.0
        entry: Optional[MappingEntry] = None
        served_by: Optional[int] = None
        for asn, one_way in ranked:
            if local_entry is not None and local_end <= elapsed:
                break  # The local reply arrived before this attempt was sent.
            cost = 2.0 * self.router.reached(source_asn, asn, one_way)
            outcome = OUTCOME_HIT
            if failure_model is not None:
                outcome = failure_model.lookup_outcome(asn, guid)
            if outcome == OUTCOME_HIT:
                try:
                    entry = self.store_at(asn).lookup(guid)
                except MappingNotFoundError:
                    outcome = OUTCOME_MISSING
                    self._lazy_migrate(guid, asn)
            if outcome == OUTCOME_TIMEOUT:
                cost = adaptive_timeout_ms(self.timeout_ms, cost)
            elif outcome not in (OUTCOME_HIT, OUTCOME_MISSING):
                raise ConfigurationError(
                    f"failure model returned unknown outcome {outcome!r}"
                )
            # A "GUID missing" reply costs one round trip, a hit too.
            elapsed += cost
            attempts.append(AttemptTrace(asn, candidates.index(asn), outcome, cost))
            if entry is not None:
                served_by = asn
                break

        # The verdict: the local reply wins ties and a failed walk.
        used_local = local_entry is not None and (
            entry is None or local_end <= elapsed
        )
        if used_local:
            entry, served_by, elapsed = local_entry, source_asn, local_end
        elif entry is None and local_end is not None:
            # The local branch ran but answered "missing" (or its timer
            # expired): the lookup fails when the later branch ends.
            elapsed = max(elapsed, local_end)
        if self.tracer.enabled:
            placement = placement_records(resolutions)
            self.tracer.record(
                QueryTrace(
                    guid_value=guid.value,
                    source_asn=source_asn,
                    issued_at=time,
                    k=len(placement),
                    placement=placement,
                    attempts=tuple(attempts),
                    local_launched=local_end is not None,
                    local_outcome=local_outcome,
                    local_end_ms=local_end,
                    used_local=used_local,
                    served_by=served_by,
                    rtt_ms=elapsed,
                    success=entry is not None,
                    failure_cause=None if entry is not None else FAILURE_EXHAUSTED,
                )
            )
        if entry is None:
            raise LookupFailedError(guid, elapsed, len(attempts))
        return LookupResult(entry, elapsed, served_by, tuple(attempts), used_local)

    def _lazy_migrate(self, guid: GUID, asn: int) -> None:
        """§III-D.1 lazy pull after a genuine miss at a hosting AS.

        Mirrors the DES miss hook: the first query that reaches an AS the
        current table says should host the mapping — and finds it absent —
        makes that AS pull the entry from the closest AS still holding a
        copy.  The pull is a background migration message, so no latency
        is charged to the triggering lookup.
        """
        donors = sorted(
            donor
            for donor, store in self.stores.items()
            if donor != asn and store.get(guid) is not None
        )
        if not donors:
            return
        donor, _latency = self.router.closest_of(asn, donors)
        entry = self.store_at(donor).get(guid)
        if entry is not None:
            self.store_at(asn).insert(entry)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def storage_load(self) -> Dict[int, int]:
        """Entries currently stored per AS (global + local copies)."""
        return {asn: len(store) for asn, store in self.stores.items() if len(store)}

    def total_entries(self) -> int:
        """Total replica copies stored across all ASs."""
        return sum(len(store) for store in self.stores.values())
