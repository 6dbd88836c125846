"""The querying gateway: K parallel replica probes over the live wire.

:class:`DMapClient` is the network twin of
:meth:`repro.core.resolver.DMapResolver.lookup`.  Where the analytic
resolver walks replicas best-first and *accounts* for each round trip,
the client actually races all K replicas in parallel over UDP — the
paper's §III-A read path — and takes the first successful answer,
cancelling the rest.  With no packet loss, the first answer is by
construction the replica with the smallest shaped RTT, which is exactly
the replica the analytic walk charges for: the two latency
distributions coincide, and the selftest asserts it.

Failure handling per replica (§III-D.3):

* per-attempt timeout ``max(timeout_floor_ms, 2 × expected RTT)`` — the
  resolver's adaptive timeout, sized in virtual ms and converted to wire
  seconds by the shaper;
* bounded exponential-backoff retry with deterministic seeded jitter —
  the whole schedule is the *pure function* :func:`attempt_schedule`, so
  tests can assert byte-equal schedules without running a clock;
* a "GUID missing" reply is authoritative: the replica answered
  honestly, retrying it cannot help, so the probe stops there.

Every lookup emits a :class:`repro.obs.trace.QueryTrace` when a tracer
is attached, using the same schema as the offline engines.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.guid import GUID, NetworkAddress, guid_like
from ..core.resolver import DEFAULT_TIMEOUT_MS, adaptive_timeout_ms
from ..errors import ClusterError, LookupFailedError, WriteFailedError
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
    hash_index_of,
    placement_records,
)
from .node import Addr
from .protocol import (
    FLAG_FORWARDED,
    STATUS_OK,
    T_INSERT,
    T_RESPONSE,
    T_UPDATE,
    Frame,
    LookupFrame,
    ResponseFrame,
    WriteFrame,
    decode,
    encode,
    seeded_unit,
)
from ..errors import WireProtocolError


@dataclass(frozen=True)
class ClientConfig:
    """Retry/timeout policy of one querying gateway.

    All randomness (backoff jitter) is a pure hash of ``seed`` and the
    attempt coordinates, so two clients with equal configs produce
    byte-identical schedules.
    """

    timeout_floor_ms: float = DEFAULT_TIMEOUT_MS
    max_attempts: int = 4
    backoff_base_ms: float = 50.0
    backoff_factor: float = 2.0
    backoff_cap_ms: float = 400.0
    jitter_fraction: float = 0.1
    hop_budget: int = 1
    seed: int = 0


@dataclass(frozen=True)
class AttemptPlan:
    """One slot of a replica's retry schedule (virtual milliseconds)."""

    timeout_ms: float
    backoff_ms: float


def attempt_schedule(
    config: ClientConfig, rtt_ms: float, trace_id: int = 0, k_index: int = 0
) -> Tuple[AttemptPlan, ...]:
    """The full per-replica retry schedule, as a pure function.

    Attempt ``i`` waits ``max(timeout_floor_ms, 2 × rtt_ms)`` (the
    §III-D.3 adaptive timeout), then backs off
    ``min(cap, base × factor^i)`` stretched by up to ``jitter_fraction``
    of deterministic seeded jitter before attempt ``i + 1``.  The last
    attempt carries no backoff.  Determinism tests compare this function
    against itself under equal seeds — the client has no other clock
    input.
    """
    plans: List[AttemptPlan] = []
    timeout = adaptive_timeout_ms(config.timeout_floor_ms, rtt_ms)
    for attempt in range(config.max_attempts):
        if attempt + 1 >= config.max_attempts:
            backoff = 0.0
        else:
            backoff = min(
                config.backoff_cap_ms,
                config.backoff_base_ms * config.backoff_factor ** attempt,
            )
            backoff *= 1.0 + config.jitter_fraction * seeded_unit(
                ">qQBB",
                config.seed,
                trace_id & 0xFFFFFFFFFFFFFFFF,
                k_index & 0xFF,
                attempt & 0xFF,
            )
        plans.append(AttemptPlan(timeout, backoff))
    return tuple(plans)


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
    forwarded: bool
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
        # ICMP port-unreachable from a killed node's port: the probe's
        # timeout handles it, exactly like a silently dead replica.
        self.client._count("net.client.socket_errors")


class DMapClient:
    """A live querying gateway bound to one cluster's peer table."""

    def __init__(
        self,
        placer,
        shaper,
        peers: Dict[int, Addr],
        config: Optional[ClientConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.placer = placer
        self.shaper = shaper
        self.peers = peers
        self.config = config or ClientConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._pending: Dict[Tuple[int, int], "asyncio.Future[ResponseFrame]"] = {}
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

    async def __aenter__(self) -> "DMapClient":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _count(self, name: str, label=None) -> None:
        self.registry.counter(name).inc(label=label)

    def _next_trace_id(self) -> int:
        self._trace_counter += 1
        return ((self.config.seed & 0xFFFFFFFF) << 32) | (
            self._trace_counter & 0xFFFFFFFF
        )

    def _send(self, frame: Frame, asn: int) -> None:
        if self._transport is None:
            raise ClusterError("client not started (call await start())")
        addr = self.peers.get(asn)
        if addr is None:
            raise ClusterError(f"no serving node registered for AS {asn}")
        self._transport.sendto(encode(frame), addr)

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
            # A late reply from a retried or cancelled attempt.
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
        """§III-A wire lookup: race all K replicas, first answer wins.

        Raises :class:`~repro.errors.LookupFailedError` when every
        replica's retry schedule is exhausted without a hit.
        """
        guid = guid_like(guid)
        trace_id = self._next_trace_id()
        tracing = self.tracer.enabled
        placement = placement_records(self.placer, guid) if tracing else ()
        if tracing:
            chains: Sequence[int] = [record.asn for record in placement]
        else:
            chains = [int(a) for a in self.placer.hosting_asns(guid)]
        # Duplicate chains landing in one AS are a single queryable host.
        replicas: List[Tuple[int, int]] = []
        seen = set()
        for index, asn in enumerate(chains):
            if asn not in seen:
                seen.add(asn)
                replicas.append((asn, index))

        loop = asyncio.get_running_loop()
        started = loop.time()
        attempts_log: List[AttemptTrace] = []
        tasks = [
            loop.create_task(
                self._probe(guid.value, asn, k_index, trace_id, source_asn, attempts_log)
            )
            for asn, k_index in replicas
        ]
        winner: Optional[ResponseFrame] = None
        try:
            for completed in asyncio.as_completed(tasks):
                response = await completed
                if response is not None:
                    winner = response
                    break
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        rtt_ms = self.shaper.virtual_ms(loop.time() - started)
        self._count("net.client.lookups")
        if winner is None:
            self._count("net.client.lookup_failures")
            if tracing:
                self._emit_trace(
                    guid, source_asn, issued_at, placement, attempts_log,
                    None, rtt_ms, FAILURE_EXHAUSTED,
                )
            raise LookupFailedError(guid, rtt_ms, len(attempts_log))
        self.registry.histogram(
            "net.client.rtt_ms", "wire lookup RTT (virtual ms)"
        ).observe(rtt_ms)
        if tracing:
            self._emit_trace(
                guid, source_asn, issued_at, placement, attempts_log,
                winner.served_by, rtt_ms, None,
            )
        return LiveLookupResult(
            guid_value=guid.value,
            locators=winner.locators,
            version=winner.version,
            served_by=winner.served_by,
            rtt_ms=rtt_ms,
            forwarded=bool(winner.flags & FLAG_FORWARDED),
            attempts=tuple(attempts_log),
            trace_id=trace_id,
        )

    async def _probe(
        self,
        guid_value: int,
        asn: int,
        k_index: int,
        trace_id: int,
        source_asn: int,
        attempts_log: List[AttemptTrace],
    ) -> Optional[ResponseFrame]:
        """One replica's full retry schedule; ``None`` = gave up."""
        loop = asyncio.get_running_loop()
        rtt = self.shaper.rtt_ms(source_asn, asn)
        plans = attempt_schedule(self.config, rtt, trace_id, k_index)
        key = (trace_id, k_index)
        for attempt, plan in enumerate(plans):
            future: "asyncio.Future[ResponseFrame]" = loop.create_future()
            self._pending[key] = future
            sent = loop.time()
            self._send(
                LookupFrame(
                    trace_id=trace_id,
                    guid_value=guid_value,
                    source_asn=source_asn,
                    k_index=min(k_index, 0xFE),
                    hop_budget=self.config.hop_budget,
                    attempt=attempt,
                ),
                asn,
            )
            try:
                response = await asyncio.wait_for(
                    future, timeout=self.shaper.wire_s(plan.timeout_ms)
                )
            except asyncio.TimeoutError:
                attempts_log.append(
                    AttemptTrace(asn, k_index, OUTCOME_TIMEOUT, plan.timeout_ms)
                )
                self._count("net.client.attempt_timeouts", label=asn)
                if plan.backoff_ms > 0.0:
                    await asyncio.sleep(self.shaper.wire_s(plan.backoff_ms))
                continue
            finally:
                if self._pending.get(key) is future:
                    del self._pending[key]
            cost_ms = self.shaper.virtual_ms(loop.time() - sent)
            if response.status == STATUS_OK:
                attempts_log.append(AttemptTrace(asn, k_index, OUTCOME_HIT, cost_ms))
                return response
            # An authoritative "GUID missing": retrying cannot help.
            attempts_log.append(AttemptTrace(asn, k_index, OUTCOME_MISSING, cost_ms))
            self._count("net.client.replica_misses", label=asn)
            return None
        return None

    def _emit_trace(
        self,
        guid: GUID,
        source_asn: int,
        issued_at: float,
        placement,
        attempts_log: List[AttemptTrace],
        served_by: Optional[int],
        rtt_ms: float,
        failure_cause: Optional[str],
    ) -> None:
        self.tracer.record(
            QueryTrace(
                guid_value=guid.value,
                source_asn=source_asn,
                issued_at=issued_at,
                k=len(placement),
                placement=placement,
                attempts=tuple(
                    AttemptTrace(
                        a.asn, hash_index_of(placement, a.asn), a.outcome, a.cost_ms
                    )
                    for a in attempts_log
                ),
                # The live client runs no §III-C local branch (the
                # cluster has no node at arbitrary querier ASs).
                local_launched=False,
                local_outcome=None,
                local_end_ms=None,
                used_local=False,
                served_by=served_by,
                rtt_ms=rtt_ms,
                success=failure_cause is None,
                failure_cause=failure_cause,
            )
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
        replicas: List[Tuple[int, int]] = []
        seen = set()
        for index, asn in enumerate(self.placer.hosting_asns(guid)):
            asn = int(asn)
            if asn not in seen:
                seen.add(asn)
                replicas.append((asn, index))
        results = await asyncio.gather(
            *(
                self._write_one(
                    ftype, guid.value, locator_values, asn, k_index,
                    trace_id, source_asn, version, timestamp,
                )
                for asn, k_index in replicas
            )
        )
        acked = [r for r in results if r is not None]
        self._count("net.client.writes")
        if len(acked) < len(replicas):
            self._count("net.client.write_failures")
            raise WriteFailedError(guid, len(acked), len(replicas))
        return LiveWriteResult(
            guid_value=guid.value,
            replicas=tuple(asn for asn, _ in replicas),
            rtt_ms=max(acked),
            per_replica_rtt_ms=tuple(acked),
            trace_id=trace_id,
        )

    async def _write_one(
        self,
        ftype: int,
        guid_value: int,
        locators: Tuple[int, ...],
        asn: int,
        k_index: int,
        trace_id: int,
        source_asn: int,
        version: int,
        timestamp: float,
    ) -> Optional[float]:
        """One replica write with the same retry schedule as reads."""
        loop = asyncio.get_running_loop()
        rtt = self.shaper.rtt_ms(source_asn, asn)
        plans = attempt_schedule(self.config, rtt, trace_id, k_index)
        key = (trace_id, k_index)
        started = loop.time()
        for attempt, plan in enumerate(plans):
            future: "asyncio.Future[ResponseFrame]" = loop.create_future()
            self._pending[key] = future
            self._send(
                WriteFrame(
                    trace_id=trace_id,
                    guid_value=guid_value,
                    source_asn=source_asn,
                    k_index=min(k_index, 0xFE),
                    attempt=attempt,
                    ftype=ftype,
                    version=version,
                    timestamp=timestamp,
                    locators=locators,
                ),
                asn,
            )
            try:
                response = await asyncio.wait_for(
                    future, timeout=self.shaper.wire_s(plan.timeout_ms)
                )
            except asyncio.TimeoutError:
                self._count("net.client.write_timeouts", label=asn)
                if plan.backoff_ms > 0.0:
                    await asyncio.sleep(self.shaper.wire_s(plan.backoff_ms))
                continue
            finally:
                if self._pending.get(key) is future:
                    del self._pending[key]
            if response.status == STATUS_OK and response.request_type == ftype:
                return self.shaper.virtual_ms(loop.time() - started)
            return None
        return None
