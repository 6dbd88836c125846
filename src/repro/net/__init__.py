"""Live asyncio serving runtime: DMap over real sockets.

The offline engines (:mod:`repro.core`, :mod:`repro.fastpath`,
:mod:`repro.sim`) *account* for the time the DMap protocol would take;
this package actually runs it.  One asyncio datagram server per hosting
AS answers LOOKUP / INSERT / UPDATE frames from the same
:class:`~repro.core.mapping.MappingStore` the analytic resolver uses,
an in-process cluster shapes every response by the topology's RTT
matrix (plus optional packet loss), and a client walks the K replicas
best-first, one query at a time, moving on after a "GUID missing" reply
or the adaptive timeout — so the wire-measured latency distribution
reproduces the Fig. 4 analytic distribution on the same seed, and each
lookup is served by the replica the analytic resolver names.

Submodules
----------
:mod:`.protocol`
    The compact versioned binary wire codec (pure, event-loop-free).
:mod:`.node`
    The per-AS asyncio datagram server: a hit, or "GUID missing" from
    an AS that does not store the GUID.
:mod:`.cluster`
    The loopback multi-node harness plus the RTT/loss
    :class:`~repro.net.cluster.LatencyShaper`.
:mod:`.client`
    :class:`~repro.net.client.DMapClient`: best-first replica walks,
    parallel K-replica writes, :mod:`repro.obs` traces.
:mod:`.loadgen`
    Open-loop asyncio load generator reporting QPS and latency
    percentiles.

Run ``python -m repro.net selftest`` for the end-to-end proof: boot a
seeded cluster, measure wire RTTs, compare against the analytic
resolver's predictions.
"""

from .client import DMapClient, LiveLookupResult, LiveWriteResult
from .cluster import ClusterConfig, LatencyShaper, LocalCluster
from .loadgen import BenchReport, LoadgenConfig, run_loadgen
from .node import DMapNode
from .protocol import (
    ErrorFrame,
    LookupFrame,
    ResponseFrame,
    WriteFrame,
    decode,
    encode,
)

__all__ = [
    "BenchReport",
    "ClusterConfig",
    "DMapClient",
    "DMapNode",
    "ErrorFrame",
    "LatencyShaper",
    "LiveLookupResult",
    "LiveWriteResult",
    "LoadgenConfig",
    "LocalCluster",
    "LookupFrame",
    "ResponseFrame",
    "WriteFrame",
    "decode",
    "encode",
    "run_loadgen",
]
