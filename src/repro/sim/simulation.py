"""The end-to-end DMap discrete-event simulation (§IV-B.1).

Mirrors the paper's setup: one node per AS, GUID Insert / Update / Lookup
events, message-level latency accounting, replica selection at the querying
gateway, timeout-and-retry on failures, and a parallel local-replica
branch.  The protocol logic is identical to the instant-mode
:class:`~repro.core.resolver.DMapResolver`; the test suite cross-checks
both paths produce the same response times on failure-free workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..bgp.table import GlobalPrefixTable
from ..core.guid import GUID, NetworkAddress, guid_like
from ..core.mapping import MappingEntry
from ..core.replication import ReplicaSelector
from ..core.resolver import DEFAULT_TIMEOUT_MS
from ..errors import ConfigurationError, SimulationError
from ..hashing.hashers import Sha256Hasher
from ..hashing.rehash import GuidPlacer, Placer
from ..obs.trace import (
    FAILURE_EXHAUSTED,
    NULL_TRACER,
    OUTCOME_HIT,
    OUTCOME_MISSING,
    OUTCOME_TIMEOUT,
    AttemptTrace,
    PlacementRecord,
    QueryTrace,
    Tracer,
    hash_index_of,
    placement_records,
)
from ..topology.graph import ASTopology
from ..topology.routing import Router
from .engine import EventHandle, Simulator
from .failures import FailureModel
from .metrics import MetricsCollector, QueryRecord
from .network import Message, MessageKind, Network
from .node import ASNode, ENTRY_SIZE_BITS, REQUEST_SIZE_BITS


@dataclass
class InsertRecord:
    """Completion record of one insert/update (latency = max replica ack)."""

    guid_value: int
    source_asn: int
    issued_at: float
    completed_at: float

    @property
    def rtt_ms(self) -> float:
        return self.completed_at - self.issued_at


class _PendingInsert:
    """Tracks the K parallel replica writes of one insert (§III-A)."""

    __slots__ = ("guid", "source_asn", "issued_at", "outstanding", "simulation")

    def __init__(
        self,
        simulation: "DMapSimulation",
        guid: GUID,
        source_asn: int,
        issued_at: float,
        outstanding: int,
    ) -> None:
        self.simulation = simulation
        self.guid = guid
        self.source_asn = source_asn
        self.issued_at = issued_at
        self.outstanding = outstanding

    def on_ack(self) -> None:
        self.outstanding -= 1
        if self.outstanding == 0:
            self.simulation.insert_records.append(
                InsertRecord(
                    self.guid.value,
                    self.source_asn,
                    self.issued_at,
                    self.simulation.simulator.now,
                )
            )


class _PendingLookup:
    """State machine of one lookup: global best-first walk with retries,
    racing a parallel local-replica branch (§III-C, §III-D.3)."""

    __slots__ = (
        "simulation",
        "guid",
        "source_asn",
        "issued_at",
        "candidates",
        "next_candidate",
        "attempts",
        "timeout_handle",
        "done",
        "local_pending",
        "local_timeout_handle",
        "tracing",
        "placement",
        "trace_log",
        "local_launched",
        "local_outcome",
        "local_end_ms",
        "attempt_sent_at",
    )

    def __init__(
        self,
        simulation: "DMapSimulation",
        guid: GUID,
        source_asn: int,
        issued_at: float,
        candidates: List[int],
    ) -> None:
        self.simulation = simulation
        self.guid = guid
        self.source_asn = source_asn
        self.issued_at = issued_at
        self.candidates = candidates
        self.next_candidate = 0
        self.attempts = 0
        self.timeout_handle: Optional[EventHandle] = None
        self.done = False
        self.local_pending = False
        self.local_timeout_handle: Optional[EventHandle] = None
        # Trace bookkeeping (only populated when the tracer is enabled).
        # The DES trace records *completed observations* in virtual-time
        # order: a reply still in flight when the race ends is absent,
        # unlike the analytic/fastpath traces which account every issued
        # attempt — DES traces are forensic, not byte-equality oracles.
        self.tracing = simulation.tracer.enabled
        self.placement: Tuple[PlacementRecord, ...] = ()
        self.trace_log: List[AttemptTrace] = []
        self.local_launched = False
        self.local_outcome: Optional[str] = None
        self.local_end_ms: Optional[float] = None
        self.attempt_sent_at = issued_at

    # -- global branch -------------------------------------------------
    def try_next(self, request_id: int) -> None:
        if self.done:
            return
        if self.next_candidate >= len(self.candidates):
            self._maybe_fail()
            return
        target = self.candidates[self.next_candidate]
        self.next_candidate += 1
        self.attempts += 1
        sim = self.simulation
        self.attempt_sent_at = sim.simulator.now
        sim.network.send(
            MessageKind.LOOKUP,
            self.source_asn,
            target,
            request_id,
            payload={"guid": self.guid, "is_local": False},
            size_bits=REQUEST_SIZE_BITS,
        )
        # Adaptive timeout: the gateway already estimates the response
        # time to rank replicas, so it won't declare a replica dead before
        # twice its expected round trip (matters for the pathological
        # high-latency stub ASs driving the paper's CDF tail).  An inline
        # twin of the resolver's ``adaptive_timeout_ms``.
        timeout = max(sim.timeout_ms, 2.0 * sim.router.rtt_ms(self.source_asn, target))
        self.timeout_handle = sim.simulator.schedule(
            timeout, lambda: self._on_timeout(request_id)
        )

    def _on_timeout(self, request_id: int) -> None:
        if self.done:
            return
        self.timeout_handle = None
        if self.tracing:
            # The timer fired ``timeout`` ms after the send, so the cost
            # is exactly the adaptive timeout charged for this attempt.
            target = self.candidates[self.next_candidate - 1]
            self.trace_log.append(
                AttemptTrace(
                    target,
                    hash_index_of(self.placement, target),
                    OUTCOME_TIMEOUT,
                    self.simulation.simulator.now - self.attempt_sent_at,
                )
            )
        self.try_next(request_id)

    def on_response(self, message: Message) -> None:
        # The local branch is only launched when the source AS is not a
        # global candidate, so a response from the source AS is the local
        # one, also when it lands at the very instant the local guard
        # fired (the guard ties with the intra-AS round trip whenever that
        # exceeds the timeout floor).
        if self.done:
            return
        is_local = self.local_launched and message.src_asn == self.source_asn
        hit = message.kind is MessageKind.LOOKUP_HIT
        if self.tracing:
            now = self.simulation.simulator.now
            if is_local:
                self.local_outcome = OUTCOME_HIT if hit else OUTCOME_MISSING
                self.local_end_ms = now - self.issued_at
            else:
                self.trace_log.append(
                    AttemptTrace(
                        message.src_asn,
                        hash_index_of(self.placement, message.src_asn),
                        OUTCOME_HIT if hit else OUTCOME_MISSING,
                        now - self.attempt_sent_at,
                    )
                )
        if hit:
            self._complete(message.src_asn, used_local=is_local)
            return
        # LOOKUP_MISS
        if is_local:
            self.local_pending = False
            if self.local_timeout_handle is not None:
                self.local_timeout_handle.cancel()
                self.local_timeout_handle = None
            if self.next_candidate >= len(self.candidates) and self.timeout_handle is None:
                self._maybe_fail()
            return
        if self.timeout_handle is not None:
            self.timeout_handle.cancel()
            self.timeout_handle = None
        self.try_next(message.request_id)

    def _on_local_timeout(self) -> None:
        """The local-branch request was swallowed (source AS down).

        Without this timer a dead querying AS would leave ``local_pending``
        set forever and the lookup would never be recorded as failed.
        """
        if self.done:
            return
        self.local_timeout_handle = None
        self.local_pending = False
        if self.tracing:
            self.local_outcome = OUTCOME_TIMEOUT
            self.local_end_ms = self.simulation.simulator.now - self.issued_at
        if self.next_candidate >= len(self.candidates) and self.timeout_handle is None:
            self._maybe_fail()

    def _complete(self, served_by: int, used_local: bool) -> None:
        self.done = True
        if self.timeout_handle is not None:
            self.timeout_handle.cancel()
        if self.local_timeout_handle is not None:
            self.local_timeout_handle.cancel()
        sim = self.simulation
        sim.metrics.add(
            QueryRecord(
                guid_value=self.guid.value,
                source_asn=self.source_asn,
                issued_at=self.issued_at,
                completed_at=sim.simulator.now,
                served_by=served_by,
                attempts=max(self.attempts, 1),
                used_local=used_local,
                success=True,
            )
        )
        if self.tracing:
            self._emit_trace(served_by, used_local, None)

    def _maybe_fail(self) -> None:
        if self.done or self.local_pending:
            return
        self.done = True
        sim = self.simulation
        sim.metrics.add(
            QueryRecord(
                guid_value=self.guid.value,
                source_asn=self.source_asn,
                issued_at=self.issued_at,
                completed_at=sim.simulator.now,
                served_by=None,
                attempts=self.attempts,
                used_local=False,
                success=False,
            )
        )
        if self.tracing:
            self._emit_trace(None, False, FAILURE_EXHAUSTED)

    def _emit_trace(
        self,
        served_by: Optional[int],
        used_local: bool,
        failure_cause: Optional[str],
    ) -> None:
        sim = self.simulation
        sim.tracer.record(
            QueryTrace(
                guid_value=self.guid.value,
                source_asn=self.source_asn,
                issued_at=self.issued_at,
                k=len(self.placement),
                placement=self.placement,
                attempts=tuple(self.trace_log),
                local_launched=self.local_launched,
                local_outcome=self.local_outcome,
                local_end_ms=self.local_end_ms,
                used_local=used_local,
                served_by=served_by,
                rtt_ms=sim.simulator.now - self.issued_at,
                success=failure_cause is None,
                failure_cause=failure_cause,
            )
        )


class DMapSimulation:
    """Event-driven DMap over a full AS topology.

    Parameters mirror :class:`~repro.core.resolver.DMapResolver`; see
    §IV-B.1 for the paper's configuration (K ∈ {1, 3, 5}, 26k ASs).

    Typical use::

        sim = DMapSimulation(topology, table, k=5)
        sim.schedule_insert(guid, [locator], source_asn, at=0.0)
        sim.schedule_lookup(guid, querier_asn, at=1000.0)
        sim.run()
        print(sim.metrics.summary().as_row())
    """

    def __init__(
        self,
        topology: ASTopology,
        table: GlobalPrefixTable,
        k: int = 5,
        selection_policy: str = "latency",
        local_replica: bool = True,
        timeout_ms: float = DEFAULT_TIMEOUT_MS,
        failure_model: Optional[FailureModel] = None,
        router: Optional[Router] = None,
        placer: Optional[Placer] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if timeout_ms <= 0:
            raise ConfigurationError("timeout_ms must be positive")
        self.topology = topology
        self.table = table
        self.router = router or Router(topology)
        self.placer = placer or GuidPlacer(
            Sha256Hasher(k, address_bits=table.bits), table
        )
        self.selector = ReplicaSelector(self.router, selection_policy)
        self.local_replica = local_replica
        self.timeout_ms = timeout_ms
        self.failure_model = failure_model or FailureModel()
        # Explicit None check: an empty CollectingTracer is falsy (len 0).
        self.tracer = tracer if tracer is not None else NULL_TRACER

        self.simulator = Simulator()
        self.network = Network(self.simulator, self.router)
        self.nodes: Dict[int, ASNode] = {}
        for asn in topology.asns():
            node = ASNode(asn, self.network, self.failure_model)
            node.response_sink = self._dispatch_response
            self.nodes[asn] = node

        for node in self.nodes.values():
            node.miss_hook = self._on_genuine_miss

        self.metrics = MetricsCollector()
        self.insert_records: List[InsertRecord] = []
        self._pending: Dict[int, object] = {}
        self._versions: Dict[GUID, int] = {}
        # Current attachment AS of each GUID's host (where the local copy
        # lives); consulted by updates to retire the superseded copy.
        self._attachments: Dict[GUID, int] = {}
        # Which ASs are known to hold a copy of each GUID (fed by the
        # write path; consulted by the lazy-migration protocol).
        self._holders: Dict[GUID, set] = {}
        self.migrations = 0

    # ------------------------------------------------------------------
    # Event scheduling API
    # ------------------------------------------------------------------
    def schedule_insert(
        self,
        guid: Union[GUID, int, str],
        locators: Sequence[NetworkAddress],
        source_asn: int,
        at: float = 0.0,
    ) -> None:
        """Queue a GUID Insert event at virtual time ``at`` (ms)."""
        guid = guid_like(guid)
        self.simulator.schedule_at(
            at, lambda: self._start_insert(guid, tuple(locators), source_asn)
        )

    def schedule_update(
        self,
        guid: Union[GUID, int, str],
        locators: Sequence[NetworkAddress],
        source_asn: int,
        at: float,
    ) -> None:
        """Queue a GUID Update event at virtual time ``at`` (ms).

        Replicas are rewritten exactly like an insert (§III-A); when the
        host moved to a different AS, the stale attachment-local copy at
        its previous AS is additionally retired (version-guarded, so an
        old AS that still hosts a global replica keeps the fresh entry).
        """
        guid = guid_like(guid)
        self.simulator.schedule_at(
            at, lambda: self._start_update(guid, tuple(locators), source_asn)
        )

    def schedule_lookup(
        self, guid: Union[GUID, int, str], source_asn: int, at: float
    ) -> None:
        """Queue a GUID Lookup event at virtual time ``at`` (ms)."""
        guid = guid_like(guid)
        self.simulator.schedule_at(
            at, lambda: self._start_lookup(guid, source_asn)
        )

    def schedule_withdrawal(self, prefix, at: float) -> None:
        """Queue a BGP prefix withdrawal at virtual time ``at`` (ms).

        The §III-D.1 protocol executes in virtual time: before the
        withdrawal takes effect, the withdrawing AS computes the deputy
        each affected mapping will now hash to and ships it a MIGRATE
        message; its own copy is dropped unless another hash chain (or
        the attachment-local copy) keeps the GUID at this AS.  Queries in
        flight during the transfer window can genuinely miss — exactly
        the transient the paper defers to future work (§VII).
        """
        self.simulator.schedule_at(at, lambda: self._apply_withdrawal(prefix))

    def schedule_announcement(self, announcement, at: float) -> None:
        """Queue a BGP prefix announcement at virtual time ``at`` (ms).

        Migration is *lazy* (§III-D.1): the first query that reaches the
        announcing AS and misses triggers a one-time GUID migration pull
        from a known holder (see :meth:`_on_genuine_miss`).
        """
        self.simulator.schedule_at(
            at, lambda: self.table.announce(announcement)
        )

    def run(self, until: Optional[float] = None) -> None:
        """Execute all queued events (optionally up to virtual ``until``)."""
        self.simulator.run(until=until)

    # ------------------------------------------------------------------
    # Protocol execution
    # ------------------------------------------------------------------
    def _next_version(self, guid: GUID) -> int:
        version = self._versions.get(guid, -1) + 1
        self._versions[guid] = version
        return version

    def _start_insert(
        self, guid: GUID, locators: Sequence[NetworkAddress], source_asn: int
    ) -> MappingEntry:
        now = self.simulator.now
        entry = MappingEntry(
            guid, tuple(locators), self._next_version(guid), timestamp=now
        )
        resolutions = self.placer.resolve_all(guid)
        request_id = self.network.next_request_id()
        pending = _PendingInsert(self, guid, source_asn, now, len(resolutions))
        self._pending[request_id] = pending
        holders = self._holders.setdefault(guid, set())
        holders.update(res.asn for res in resolutions)
        if self.local_replica:
            holders.add(source_asn)
            self._attachments[guid] = source_asn
        for res in resolutions:
            self.network.send(
                MessageKind.INSERT,
                source_asn,
                res.asn,
                request_id,
                payload=entry,
                size_bits=ENTRY_SIZE_BITS,
            )
        if self.local_replica:
            # The local copy is written via an intra-AS message that never
            # dominates the K-way parallel max, so it is not awaited.
            self.network.send(
                MessageKind.MIGRATE,
                source_asn,
                source_asn,
                request_id,
                payload=entry,
                size_bits=ENTRY_SIZE_BITS,
            )
        return entry

    def _start_update(
        self, guid: GUID, locators: Sequence[NetworkAddress], source_asn: int
    ) -> None:
        previous = self._attachments.get(guid)
        entry = self._start_insert(guid, locators, source_asn)
        if self.local_replica and previous is not None and previous != source_asn:
            # The host left its old AS; retire the stale local copy there.
            # Sent after the INSERTs so that, when the old AS is also a
            # global replica host, the fresh entry lands first and the
            # version guard in the RETIRE handler keeps it.
            self.network.send(
                MessageKind.RETIRE,
                source_asn,
                previous,
                self.network.next_request_id(),
                payload=entry,
                size_bits=ENTRY_SIZE_BITS,
            )

    def _start_lookup(self, guid: GUID, source_asn: int) -> None:
        now = self.simulator.now
        resolutions = self.placer.resolve_all(guid)
        candidates = self.selector.order_candidates(
            source_asn, [res.asn for res in resolutions]
        )
        request_id = self.network.next_request_id()
        pending = _PendingLookup(self, guid, source_asn, now, candidates)
        if self.tracer.enabled:
            pending.placement = placement_records(resolutions)
        self._pending[request_id] = pending
        if self.local_replica and source_asn not in candidates:
            pending.local_pending = True
            pending.local_launched = True
            self.network.send(
                MessageKind.LOOKUP,
                source_asn,
                source_asn,
                request_id,
                payload={"guid": guid, "is_local": True},
                size_bits=REQUEST_SIZE_BITS,
            )
            # Guard the local branch with the same adaptive timeout the
            # global walk uses: if the querier's own AS is down the local
            # request vanishes, and without this timer the lookup would
            # stay pending forever.  An inline twin of the resolver's
            # ``local_branch_end_ms``, kept so the DES stays independent.
            local_timeout = max(
                self.timeout_ms, 2.0 * self.router.intra_ms(source_asn)
            )
            pending.local_timeout_handle = self.simulator.schedule(
                local_timeout, pending._on_local_timeout
            )
        pending.try_next(request_id)

    # ------------------------------------------------------------------
    # BGP churn in virtual time (§III-D.1 / §VII transients)
    # ------------------------------------------------------------------
    def _apply_withdrawal(self, prefix) -> None:
        withdrawing_asn = self.table.withdraw(prefix).asn
        node = self.nodes[withdrawing_asn]
        for entry in list(node.store):
            guid = entry.guid
            # Post-withdrawal placement; did this AS host the GUID via an
            # address inside the withdrawn block?  The stateless placer
            # answers both: we re-derive the chains under the *new* table
            # and compare with where the copy actually sits.
            new_resolutions = self.placer.resolve_all(guid)
            still_here = any(res.asn == withdrawing_asn for res in new_resolutions)
            holders = self._holders.setdefault(guid, set())
            for res in new_resolutions:
                if (
                    res.asn != withdrawing_asn
                    and self.nodes[res.asn].store.get(guid) is None
                ):
                    # This chain left the withdrawing AS (or was never
                    # here); ship the copy to its new host.  The check is
                    # against the actual store, not the ``_holders`` hint:
                    # the hint over-approximates (it keeps ASs whose copy
                    # was since retired), which would skip a needed ship.
                    self.network.send(
                        MessageKind.MIGRATE,
                        withdrawing_asn,
                        res.asn,
                        self.network.next_request_id(),
                        payload=entry,
                        size_bits=ENTRY_SIZE_BITS,
                    )
                    holders.add(res.asn)
                    self.migrations += 1
            if not still_here and not self._is_local_copy(guid, withdrawing_asn):
                # No post-withdrawal chain keeps the GUID here, and it is
                # not the attachment-local copy: drop it even when every
                # new host already held a replica (no ship happened).
                node.store.delete(guid)
                holders.discard(withdrawing_asn)

    def _is_local_copy(self, guid: GUID, asn: int) -> bool:
        """Whether ``asn`` holds the GUID as its attachment-local copy."""
        entry = self.nodes[asn].store.get(guid)
        if entry is None:
            return False
        locator = self.table.owner_asn(entry.primary_locator)
        return locator == asn

    def _on_genuine_miss(self, asn: int, guid: GUID) -> None:
        """Lazy GUID migration (§III-D.1, new-announcement side).

        Fired when a query reaches ``asn`` and the mapping is absent.  If
        the current table says this AS *should* host a replica, pull the
        entry from the closest known holder — a one-time cost charged as
        a real MIGRATE message in virtual time.
        """
        if asn not in set(self.placer.hosting_asns(guid)):
            return
        holders = [
            h
            for h in sorted(self._holders.get(guid, ()))
            if h != asn and self.nodes[h].store.get(guid) is not None
        ]
        if not holders:
            return
        donor, _latency = self.router.closest_of(asn, holders)
        entry = self.nodes[donor].store.get(guid)
        if entry is None:
            return
        self.network.send(
            MessageKind.MIGRATE,
            donor,
            asn,
            self.network.next_request_id(),
            payload=entry,
            size_bits=ENTRY_SIZE_BITS,
        )
        self._holders.setdefault(guid, set()).add(asn)
        self.migrations += 1

    def _dispatch_response(self, message: Message) -> None:
        pending = self._pending.get(message.request_id)
        if pending is None:
            return  # response for an already-completed operation
        if isinstance(pending, _PendingInsert):
            if message.kind is MessageKind.INSERT_ACK:
                pending.on_ack()
                if pending.outstanding == 0:
                    del self._pending[message.request_id]
            return
        if isinstance(pending, _PendingLookup):
            pending.on_response(message)
            if pending.done:
                self._pending.pop(message.request_id, None)
            return
        raise SimulationError(f"unknown pending operation for {message.request_id}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def storage_load(self) -> Dict[int, int]:
        """Entries stored per AS at the current virtual time."""
        return {
            asn: len(node.store) for asn, node in self.nodes.items() if len(node.store)
        }

    def update_traffic_bits(self) -> int:
        """Total bits sent so far (traffic-overhead accounting, §IV-A)."""
        return self.network.bytes_sent * 8
