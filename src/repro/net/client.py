"""The querying gateway: the best-first replica walk over the live wire.

:class:`DMapClient` is the network twin of
:meth:`repro.core.resolver.DMapResolver.lookup` and walks the same order:
:meth:`repro.core.replication.ReplicaSelector.ranked` over the GUID's
hosting ASs.  It sends one LOOKUP at a time, best replica first, and
moves to the next replica after a "GUID missing" reply or after the
§III-D.3 adaptive timeout ``max(timeout_floor_ms, 2 × expected RTT)``
(sized in virtual ms, converted to wire seconds by the shaper).  Each
replica is asked once: the walk is the retry (§III-A, §III-D.3).  With
no packet loss the best replica answers, so a lookup costs one datagram
and the analytic walk's latency; the live lane checks ``served_by`` and
the ``(asn, outcome)`` attempt sequence against the resolver per query.

A write sends its K frames together, one attempt each under the same
timeout, and fails unless every replica acknowledges (§III-A).

Every lookup emits a :class:`repro.obs.trace.QueryTrace` when a tracer
is attached, using the same schema as the offline engines.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.guid import GUID, NetworkAddress, guid_like
from ..core.replication import ReplicaSelector
from ..core.resolver import adaptive_timeout_ms
from ..errors import ClusterError, LookupFailedError, WireProtocolError, WriteFailedError
from ..hashing.rehash import Placer
from ..obs.counters import MetricsRegistry
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
from .node import Addr
from .protocol import (
    STATUS_OK,
    T_INSERT,
    T_UPDATE,
    Frame,
    LookupFrame,
    ResponseFrame,
    WriteFrame,
    decode,
    encode,
)


@dataclass(frozen=True)
class LiveLookupResult:
    """A successful wire lookup.

    ``rtt_ms`` is in *virtual* milliseconds (wire seconds mapped back
    through the shaper), directly comparable to
    :attr:`repro.core.resolver.LookupResult.rtt_ms`.
    """

    guid_value: int
    locators: Tuple[int, ...]
    version: int
    served_by: int
    rtt_ms: float
    attempts: Tuple[AttemptTrace, ...]
    trace_id: int


@dataclass(frozen=True)
class LiveWriteResult:
    """A fully acknowledged wire insert/update.

    ``rtt_ms`` is the slowest replica acknowledgement — the paper's
    parallel-write latency (§III-A) — in virtual milliseconds.
    """

    guid_value: int
    replicas: Tuple[int, ...]
    rtt_ms: float
    per_replica_rtt_ms: Tuple[float, ...]
    trace_id: int


class _ClientProtocol(asyncio.DatagramProtocol):
    """Datagram glue: routes responses to their pending futures."""

    def __init__(self, client: "DMapClient") -> None:
        self.client = client

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        pass

    def datagram_received(self, data: bytes, addr: Addr) -> None:
        self.client._on_datagram(data)

    def error_received(self, exc: Exception) -> None:
        # ICMP port-unreachable from a killed node's port: the attempt's
        # timeout handles it, exactly like a silently dead replica.
        self.client._count("net.client.socket_errors")


def _expire(future: "asyncio.Future[Optional[ResponseFrame]]") -> None:
    """An attempt's timer: no response by now means ``None``."""
    if not future.done():
        future.set_result(None)


class DMapClient:
    """A live querying gateway bound to one cluster's peer table.

    The shaper carries the cluster's timeout floor and seed; the seed
    prefixes every trace id, so equal clusters number their exchanges
    (and hence draw their seeded losses) identically.
    """

    def __init__(
        self,
        placer: Placer,
        shaper,
        peers: Dict[int, Addr],
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.placer = placer
        self.shaper = shaper
        self.peers = peers
        self.selector = ReplicaSelector(shaper.router)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._pending: Dict[
            Tuple[int, int], "asyncio.Future[Optional[ResponseFrame]]"
        ] = {}
        self._trace_counter = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the client's own datagram socket."""
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _ClientProtocol(self), local_addr=("127.0.0.1", 0)
        )
        self._transport = transport  # type: ignore[assignment]

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        for future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _count(self, name: str, label=None) -> None:
        self.registry.counter(name).inc(label=label)

    def _next_trace_id(self) -> int:
        self._trace_counter += 1
        return ((self.shaper.seed & 0xFFFFFFFF) << 32) | (
            self._trace_counter & 0xFFFFFFFF
        )

    def _ranked(
        self, source_asn: int, chains: Sequence[int]
    ) -> Iterator[Tuple[int, int, float]]:
        """``(asn, k_index, timeout_ms)`` per distinct replica, in the
        resolver's best-first order; ``k_index`` is the replica's first
        hash index."""
        for asn, one_way in self.selector.ranked(source_asn, chains):
            rtt = 2.0 * Router.reached(source_asn, asn, one_way)
            yield (
                asn,
                chains.index(asn),
                adaptive_timeout_ms(self.shaper.timeout_floor_ms, rtt),
            )

    async def _exchange(
        self, frame: Frame, asn: int, timeout_ms: float
    ) -> Optional[ResponseFrame]:
        """Send ``frame`` to ``asn`` once: its response, or ``None`` when
        ``timeout_ms`` (virtual) passes first."""
        if self._transport is None:
            raise ClusterError("client not started (call await start())")
        addr = self.peers.get(asn)
        if addr is None:
            raise ClusterError(f"no serving node registered for AS {asn}")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Optional[ResponseFrame]]" = loop.create_future()
        key = (frame.trace_id, frame.k_index)
        self._pending[key] = future
        timer = loop.call_later(self.shaper.wire_s(timeout_ms), _expire, future)
        try:
            self._transport.sendto(encode(frame), addr)
            return await future
        finally:
            timer.cancel()
            self._pending.pop(key, None)

    def _on_datagram(self, data: bytes) -> None:
        try:
            frame = decode(data)
        except WireProtocolError:
            self._count("net.client.malformed")
            return
        if not isinstance(frame, ResponseFrame):
            self._count("net.client.protocol_errors")
            return
        future = self._pending.get((frame.trace_id, frame.k_index))
        if future is None or future.done():
            # A reply that arrived after its attempt timed out.
            self._count("net.client.late_responses")
            return
        future.set_result(frame)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    async def lookup(
        self,
        guid: Union[GUID, int, str],
        source_asn: int,
        issued_at: float = 0.0,
    ) -> LiveLookupResult:
        """§III-A wire lookup: walk the replicas best-first until one
        answers.

        Raises :class:`~repro.errors.LookupFailedError` when every
        replica timed out or answered "GUID missing".
        """
        guid = guid_like(guid)
        trace_id = self._next_trace_id()
        resolutions = self.placer.resolve_all(guid)
        chains = [res.asn for res in resolutions]

        loop = asyncio.get_running_loop()
        started = loop.time()
        attempts_log: List[AttemptTrace] = []
        winner: Optional[ResponseFrame] = None
        for asn, k_index, timeout_ms in self._ranked(source_asn, chains):
            sent = loop.time()
            response = await self._exchange(
                LookupFrame(
                    trace_id=trace_id,
                    guid_value=guid.value,
                    source_asn=source_asn,
                    k_index=k_index,
                ),
                asn,
                timeout_ms,
            )
            if response is None:
                attempts_log.append(
                    AttemptTrace(asn, k_index, OUTCOME_TIMEOUT, timeout_ms)
                )
                self._count("net.client.attempt_timeouts", label=asn)
                continue
            cost_ms = self.shaper.virtual_ms(loop.time() - sent)
            if response.status == STATUS_OK:
                attempts_log.append(AttemptTrace(asn, k_index, OUTCOME_HIT, cost_ms))
                winner = response
                break
            attempts_log.append(AttemptTrace(asn, k_index, OUTCOME_MISSING, cost_ms))
            self._count("net.client.replica_misses", label=asn)

        rtt_ms = self.shaper.virtual_ms(loop.time() - started)
        self._count("net.client.lookups")
        if self.tracer.enabled:
            placement = placement_records(resolutions)
            self.tracer.record(
                QueryTrace(
                    guid_value=guid.value,
                    source_asn=source_asn,
                    issued_at=issued_at,
                    k=len(placement),
                    placement=placement,
                    attempts=tuple(attempts_log),
                    # The live client runs no §III-C local branch (the
                    # cluster has no node at arbitrary querier ASs).
                    local_launched=False,
                    local_outcome=None,
                    local_end_ms=None,
                    used_local=False,
                    served_by=None if winner is None else winner.served_by,
                    rtt_ms=rtt_ms,
                    success=winner is not None,
                    failure_cause=None if winner is not None else FAILURE_EXHAUSTED,
                )
            )
        if winner is None:
            self._count("net.client.lookup_failures")
            raise LookupFailedError(guid, rtt_ms, len(attempts_log))
        self.registry.histogram(
            "net.client.rtt_ms", "wire lookup RTT (virtual ms)"
        ).observe(rtt_ms)
        return LiveLookupResult(
            guid_value=guid.value,
            locators=winner.locators,
            version=winner.version,
            served_by=winner.served_by,
            rtt_ms=rtt_ms,
            attempts=tuple(attempts_log),
            trace_id=trace_id,
        )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    async def insert(
        self,
        guid: Union[GUID, int, str],
        locators: Sequence[Union[NetworkAddress, int]],
        source_asn: int,
        timestamp: float = 0.0,
    ) -> LiveWriteResult:
        """§III-A wire insert: write all K replicas in parallel."""
        return await self._write(T_INSERT, guid, locators, source_asn, 0, timestamp)

    async def update(
        self,
        guid: Union[GUID, int, str],
        locators: Sequence[Union[NetworkAddress, int]],
        source_asn: int,
        version: int,
        timestamp: float = 0.0,
    ) -> LiveWriteResult:
        """§III-A wire update: like insert, with an advanced version."""
        return await self._write(
            T_UPDATE, guid, locators, source_asn, version, timestamp
        )

    async def _write(
        self,
        ftype: int,
        guid: Union[GUID, int, str],
        locators: Sequence[Union[NetworkAddress, int]],
        source_asn: int,
        version: int,
        timestamp: float,
    ) -> LiveWriteResult:
        guid = guid_like(guid)
        trace_id = self._next_trace_id()
        locator_values = tuple(int(loc) for loc in locators)
        chains = self.placer.hosting_asns(guid)
        replicas = list(self._ranked(source_asn, chains))
        loop = asyncio.get_running_loop()
        started = loop.time()

        async def write_one(asn: int, k_index: int, timeout_ms: float):
            response = await self._exchange(
                WriteFrame(
                    trace_id=trace_id,
                    guid_value=guid.value,
                    source_asn=source_asn,
                    k_index=k_index,
                    ftype=ftype,
                    version=version,
                    timestamp=timestamp,
                    locators=locator_values,
                ),
                asn,
                timeout_ms,
            )
            if response is None:
                self._count("net.client.write_timeouts", label=asn)
            elif response.status == STATUS_OK and response.request_type == ftype:
                return self.shaper.virtual_ms(loop.time() - started)
            return None

        results = await asyncio.gather(*(write_one(*r) for r in replicas))
        acked = [r for r in results if r is not None]
        self._count("net.client.writes")
        if len(acked) < len(replicas):
            self._count("net.client.write_failures")
            raise WriteFailedError(guid, len(acked), len(replicas))
        return LiveWriteResult(
            guid_value=guid.value,
            replicas=tuple(asn for asn, _, _ in replicas),
            rtt_ms=max(acked),
            per_replica_rtt_ms=tuple(acked),
            trace_id=trace_id,
        )
