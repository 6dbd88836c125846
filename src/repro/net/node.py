"""The per-AS serving node: an asyncio datagram server over one store.

Each hosting AS in a live cluster runs one :class:`DMapNode`.  The node
answers LOOKUP / INSERT / UPDATE frames from the *same*
:class:`~repro.core.mapping.MappingStore` instance the analytic
:class:`~repro.core.resolver.DMapResolver` uses, so the wire runtime and
the offline engines can never disagree about state — only about time.

Latency model: the responder owns the whole leg.  A node delays every
response by the shaped round-trip time between the querier's AS and
itself, as dictated by the cluster's
:class:`~repro.net.cluster.LatencyShaper` over the topology's RTT
matrix.  Requests travel instantly; the reply pays the full round trip.
This halves the number of timers without changing any measured latency.

A node that does not store the GUID answers "GUID missing" with its own
AS, as every offline engine records it; the querier's best-first walk
then asks the next replica (§III-A, §III-D.3).
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple

from ..core.guid import GUID, NetworkAddress
from ..core.mapping import MappingEntry, MappingStore
from ..obs.counters import MetricsRegistry
from .protocol import (
    STATUS_MISS,
    STATUS_OK,
    T_INSERT,
    T_LOOKUP,
    T_UPDATE,
    ERR_MALFORMED,
    ErrorFrame,
    Frame,
    LookupFrame,
    ResponseFrame,
    WriteFrame,
    decode,
    encode,
)
from ..errors import WireProtocolError

Addr = Tuple[str, int]


class _NodeProtocol(asyncio.DatagramProtocol):
    """Datagram glue: hands every packet to the owning node."""

    def __init__(self, node: "DMapNode") -> None:
        self.node = node

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.node._transport = transport  # type: ignore[assignment]

    def datagram_received(self, data: bytes, addr: Addr) -> None:
        self.node._on_datagram(data, addr)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self.node._count("net.node.socket_errors")


class DMapNode:
    """One hosting AS's mapping service, live on a loopback UDP port.

    Parameters
    ----------
    asn:
        The AS this node serves.
    store:
        The mapping store to answer from — share the resolver's
        ``store_at(asn)`` instance to keep both worlds consistent.
    shaper:
        Latency/loss shaping oracle (:mod:`repro.net.cluster`).
    registry:
        Metrics registry; the cluster passes one shared instance so
        façade and wire-server metrics land together.
    """

    def __init__(
        self,
        asn: int,
        store: MappingStore,
        shaper,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.asn = int(asn)
        self.store = store
        self.shaper = shaper
        self.registry = registry if registry is not None else MetricsRegistry()
        self._transport: Optional[asyncio.DatagramTransport] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Addr:
        """Bind the node's datagram endpoint; returns ``(host, port)``."""
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _NodeProtocol(self), local_addr=(host, port)
        )
        self._transport = transport  # type: ignore[assignment]
        return transport.get_extra_info("sockname")[:2]

    def close(self) -> None:
        """Stop serving."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    @property
    def running(self) -> bool:
        """Whether the node currently has a bound transport."""
        return self._transport is not None and not self._transport.is_closing()

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    def _count(self, name: str, label=None) -> None:
        self.registry.counter(name).inc(label=label)

    # ------------------------------------------------------------------
    # Datagram dispatch
    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes, addr: Addr) -> None:
        try:
            frame = decode(data)
        except WireProtocolError as exc:
            self._count("net.node.malformed")
            self._send_bytes(
                encode(
                    ErrorFrame(
                        trace_id=0,
                        guid_value=0,
                        source_asn=self.asn,
                        code=ERR_MALFORMED,
                        message=str(exc)[:200],
                    )
                ),
                addr,
            )
            return
        self._count("net.node.frames_rx", label=frame.ftype)
        if frame.ftype == T_LOOKUP:
            self._handle_lookup(frame, addr)
        elif frame.ftype in (T_INSERT, T_UPDATE):
            self._handle_write(frame, addr)
        else:
            # A node answers requests only; a stray response or error
            # frame is counted and dropped.
            self._count("net.node.unexpected_frames", label=frame.ftype)

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    def _handle_lookup(self, frame: LookupFrame, addr: Addr) -> None:
        entry = self.store.get(GUID(frame.guid_value))
        if entry is None:
            self._count("net.node.lookup_misses", label=self.asn)
            self._respond(frame, addr, STATUS_MISS)
            return
        self._count("net.node.lookups_served", label=self.asn)
        self._respond(
            frame,
            addr,
            STATUS_OK,
            entry.version,
            entry.timestamp,
            tuple(int(loc) for loc in entry.locators),
        )

    def _handle_write(self, frame: WriteFrame, addr: Addr) -> None:
        entry = MappingEntry(
            GUID(frame.guid_value),
            tuple(NetworkAddress(loc) for loc in frame.locators),
            version=frame.version,
            timestamp=frame.timestamp,
        )
        accepted = self.store.insert(entry)
        self._count(
            "net.node.writes_applied" if accepted else "net.node.writes_stale",
            label=self.asn,
        )
        self._respond(frame, addr, STATUS_OK, entry.version)

    # ------------------------------------------------------------------
    # Shaped sending
    # ------------------------------------------------------------------
    def _respond(
        self,
        request: Frame,
        addr: Addr,
        status: int,
        version: int = 0,
        timestamp: float = 0.0,
        locators: Tuple[int, ...] = (),
    ) -> None:
        """Answer ``request`` after the querier<->node round trip,
        unless the shaper loses the reply."""
        source_asn = request.source_asn
        if self.shaper.should_drop(
            source_asn, self.asn, request.trace_id, request.k_index
        ):
            self._count("net.node.shaped_drops", label=self.asn)
            return
        data = encode(
            ResponseFrame(
                trace_id=request.trace_id,
                guid_value=request.guid_value,
                source_asn=source_asn,
                k_index=request.k_index,
                status=status,
                request_type=request.ftype,
                served_by=self.asn,
                version=version,
                timestamp=timestamp,
                locators=locators,
            )
        )
        delay = self.shaper.delay_s(source_asn, self.asn)
        if delay <= 0.0:
            self._send_bytes(data, addr)
            return
        asyncio.get_running_loop().call_later(delay, self._send_bytes, data, addr)

    def _send_bytes(self, data: bytes, addr: Addr) -> None:
        if self._transport is None or self._transport.is_closing():
            return
        self._count("net.node.frames_tx")
        self._transport.sendto(data, addr)
