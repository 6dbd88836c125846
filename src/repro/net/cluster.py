"""The in-process serving cluster: one node per hosting AS, shaped wire.

:class:`LocalCluster` boots a :class:`~repro.net.node.DMapNode` per
selected AS on loopback UDP ports and glues them to a
:class:`LatencyShaper` that reproduces the topology's pairwise RTTs on
the real event loop.  The cluster owns an analytic
:class:`~repro.core.resolver.DMapResolver` over the *same* stores the
nodes answer from, so every wire measurement has an exact analytic
prediction to compare against — the live-vs-analytic equivalence the
selftest and the :mod:`repro.validation` live lane assert.

Node selection: a full topology has thousands of ASs, but a bounded
cluster can still serve real workload traffic exactly — a GUID is
servable iff all K of its hosting ASs run nodes.  :meth:`LocalCluster.build`
walks the workload's GUIDs in rank order and greedily admits each GUID
whose hosting ASs still fit the node budget, so popular GUIDs (the bulk
of Zipf traffic) are admitted first and every admitted GUID is fully
replicated in-cluster.

Time scaling: virtual milliseconds from the RTT matrix are mapped to
wire seconds by ``time_scale`` (default 0.5: one virtual millisecond
takes half a wall-clock millisecond), and measurements are mapped back,
so a selftest over hundreds of queries finishes in seconds while
preserving every latency *ratio*.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.guid import GUID
from ..core.resolver import DEFAULT_TIMEOUT_MS, DMapResolver
from ..errors import ClusterError
from ..obs.counters import MetricsRegistry
from ..obs.trace import Tracer
from ..topology.routing import Router
from ..workload.generator import Workload, WorkloadConfig, WorkloadGenerator
from .node import Addr, DMapNode
from .protocol import seeded_unit

#: Default wire-seconds per virtual-millisecond compression factor:
#: a 200 ms analytic RTT takes 100 ms of wall clock.  Event-loop
#: scheduling plus epoll timer granularity cost a roughly constant
#: ~2 ms of wall clock per query; compressing harder than this magnifies
#: that constant into the recovered virtual latencies and pushes the
#: live/analytic ratio outside the validation tolerance.
DEFAULT_TIME_SCALE = 0.5


class LatencyShaper:
    """Maps topology RTTs onto event-loop delays, with optional loss.

    The shaper is the single clock authority of a live cluster: nodes ask
    it how long to hold a response (:meth:`delay_s`), clients ask it to
    convert measured wall time back into virtual milliseconds
    (:meth:`virtual_ms`) and to size timeouts (:meth:`wire_s`).

    Packet loss is deterministic: :meth:`should_drop` hashes
    ``(seed, src, dst, trace_id, k_index, attempt)`` and drops when the
    resulting uniform fraction falls below ``loss_rate``, so a seeded run
    loses exactly the same packets every time, and a retry (higher
    ``attempt``) re-rolls.
    """

    def __init__(
        self,
        router: Router,
        time_scale: float = DEFAULT_TIME_SCALE,
        loss_rate: float = 0.0,
        seed: int = 0,
        timeout_floor_ms: float = DEFAULT_TIMEOUT_MS,
    ) -> None:
        if time_scale <= 0.0:
            raise ClusterError(f"time_scale must be positive, got {time_scale}")
        if not 0.0 <= loss_rate < 1.0:
            raise ClusterError(f"loss_rate must lie in [0, 1), got {loss_rate}")
        self.router = router
        self.time_scale = float(time_scale)
        self.loss_rate = float(loss_rate)
        self.seed = int(seed)
        self.timeout_floor_ms = float(timeout_floor_ms)

    # ------------------------------------------------------------------
    # Clock arithmetic
    # ------------------------------------------------------------------
    def rtt_ms(self, src_asn: int, dst_asn: int) -> float:
        """Virtual round-trip milliseconds between two ASs."""
        return self.router.rtt_ms(src_asn, dst_asn)

    def wire_s(self, virtual_ms: float) -> float:
        """Wire (wall-clock) seconds corresponding to virtual ms."""
        return virtual_ms * self.time_scale / 1000.0

    def virtual_ms(self, wire_s: float) -> float:
        """Virtual milliseconds corresponding to measured wire seconds."""
        return wire_s * 1000.0 / self.time_scale

    def delay_s(self, src_asn: int, dst_asn: int) -> float:
        """How long a responder holds its reply: the whole leg's RTT.

        Requests travel instantly and the response carries the full
        round trip (see :mod:`repro.net.node`), so one timer per
        exchange reproduces the pairwise RTT exactly.
        """
        return self.wire_s(self.rtt_ms(src_asn, dst_asn))

    # ------------------------------------------------------------------
    # Deterministic loss
    # ------------------------------------------------------------------
    def should_drop(
        self, src_asn: int, dst_asn: int, trace_id: int, k_index: int, attempt: int
    ) -> bool:
        """Whether this exchange's response is lost (seeded, replayable)."""
        if self.loss_rate <= 0.0:
            return False
        fraction = seeded_unit(
            ">qIIQBB",
            self.seed,
            src_asn & 0xFFFFFFFF,
            dst_asn & 0xFFFFFFFF,
            trace_id & 0xFFFFFFFFFFFFFFFF,
            k_index & 0xFF,
            attempt & 0xFF,
        )
        return fraction < self.loss_rate


@dataclass
class ClusterConfig:
    """Shape of a :class:`LocalCluster`.

    ``max_nodes`` bounds the booted node count; ``n_guids`` /
    ``n_lookups`` size the workload the nodes are selected from.  All
    clocks and loss draws derive from ``seed``, so two clusters built
    from equal configs serve byte-identical traffic.
    """

    scale: str = "small"
    seed: int = 0
    k: int = 5
    max_nodes: int = 50
    n_guids: int = 200
    n_lookups: int = 2_000
    time_scale: float = DEFAULT_TIME_SCALE
    loss_rate: float = 0.0
    timeout_floor_ms: float = DEFAULT_TIMEOUT_MS

    def validate(self) -> None:
        if self.k < 1:
            raise ClusterError("k must be >= 1")
        if self.max_nodes < self.k:
            raise ClusterError(
                f"max_nodes ({self.max_nodes}) cannot be below k ({self.k}): "
                "a single GUID needs K hosting nodes"
            )
        if self.n_guids < 1:
            raise ClusterError("n_guids must be >= 1")


@dataclass(frozen=True)
class ServableLookup:
    """One workload lookup whose GUID is fully replicated in-cluster."""

    guid: GUID
    source_asn: int
    home_asn: int


@dataclass
class LocalCluster:
    """A booted (or bootable) set of per-AS nodes over one resolver.

    Build with :meth:`build`, then ``await start()`` inside a running
    event loop.  The resolver's stores are populated at build time (the
    analytic insert is instant), so nodes serve from converged state the
    moment they bind — mirroring the paper's insert-phase-then-
    lookup-phase workload structure.
    """

    config: ClusterConfig
    resolver: DMapResolver
    shaper: LatencyShaper
    workload: Workload
    node_asns: Tuple[int, ...]
    servable: List[ServableLookup]
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    nodes: Dict[int, DMapNode] = field(default_factory=dict)
    peers: Dict[int, Addr] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: Optional[ClusterConfig] = None,
        environment=None,
        registry: Optional[MetricsRegistry] = None,
    ) -> "LocalCluster":
        """Materialize substrate, workload, node selection, and stores.

        ``environment`` (a :class:`repro.experiments.common.Environment`)
        can be passed to reuse a cached substrate; by default one is
        fetched for ``(config.scale, config.seed)``.
        """
        from ..experiments.common import get_environment

        config = config or ClusterConfig()
        config.validate()
        env = environment or get_environment(config.scale, config.seed)
        resolver = DMapResolver(
            env.table,
            env.router,
            k=config.k,
            # The live client has no node at arbitrary querier ASs, so the
            # §III-C local branch is disabled on both sides of the
            # comparison — equivalence is asserted on the global walk.
            local_replica=False,
            timeout_ms=config.timeout_floor_ms,
        )
        workload = WorkloadGenerator(
            env.topology,
            WorkloadConfig(
                n_guids=config.n_guids,
                n_lookups=config.n_lookups,
                seed=config.seed,
            ),
        ).generate()

        # Greedy rank-order admission: a GUID is servable iff all its
        # hosting ASs fit the node budget alongside those already chosen.
        node_set: set = set()
        admitted: Dict[GUID, List[int]] = {}
        for guid in workload.guids:
            hosting = [int(a) for a in resolver.placer.hosting_asns(guid)]
            new = set(hosting) - node_set
            if len(node_set) + len(new) <= config.max_nodes:
                node_set.update(new)
                admitted[guid] = hosting
        if not admitted:
            raise ClusterError(
                f"no GUID's {config.k} hosting ASs fit in {config.max_nodes} nodes"
            )

        # Converged state: every admitted GUID inserted at its replicas
        # through the analytic write path (instant), into the same stores
        # the nodes will serve from.
        for guid in admitted:
            locator = workload.locator_for(guid, env.table)
            resolver.insert(guid, [locator], workload.home_asn[guid])

        arrays = workload.lookup_arrays()
        homes = arrays.local_asns.tolist()
        servable = [
            ServableLookup(arrays.guids[idx], source, homes[idx])
            for idx, source in zip(arrays.guid_idx.tolist(), arrays.sources.tolist())
            if arrays.guids[idx] in admitted
        ]
        shaper = LatencyShaper(
            env.router,
            time_scale=config.time_scale,
            loss_rate=config.loss_rate,
            seed=config.seed,
            timeout_floor_ms=config.timeout_floor_ms,
        )
        return cls(
            config=config,
            resolver=resolver,
            shaper=shaper,
            workload=workload,
            node_asns=tuple(sorted(node_set)),
            servable=servable,
            registry=registry if registry is not None else MetricsRegistry(),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind one datagram server per selected AS on loopback."""
        if self.nodes:
            raise ClusterError("cluster already started")
        for asn in self.node_asns:
            node = DMapNode(
                asn,
                self.resolver.store_at(asn),
                self.resolver.placer,
                self.shaper,
                self.peers,
                registry=self.registry,
            )
            addr = await node.start()
            self.nodes[asn] = node
            self.peers[asn] = addr
        self.registry.gauge(
            "net.cluster.nodes", "datagram servers currently bound"
        ).set(float(len(self.nodes)))

    async def stop(self) -> None:
        """Close every node (idempotent)."""
        for node in self.nodes.values():
            node.close()
        self.nodes.clear()
        self.peers.clear()
        self.registry.gauge("net.cluster.nodes").set(0.0)
        # Let the loop process transport teardown callbacks.
        await asyncio.sleep(0)

    def kill_node(self, asn: int) -> None:
        """Hard-stop one node, keeping its peer entry.

        Clients keep addressing the dead port; their probes time out —
        exactly how a crashed hosting AS presents on a real network.
        """
        node = self.nodes.get(asn)
        if node is None:
            raise ClusterError(f"no node running for AS {asn}")
        node.close()
        self.registry.counter("net.cluster.killed_nodes").inc()
        self.registry.gauge("net.cluster.nodes").set(
            float(sum(1 for n in self.nodes.values() if n.running))
        )

    # ------------------------------------------------------------------
    # Client / traffic plumbing
    # ------------------------------------------------------------------
    def client(self, config=None, tracer: Optional[Tracer] = None):
        """A :class:`~repro.net.client.DMapClient` wired to this cluster
        (``await client.start()`` before use)."""
        from .client import ClientConfig, DMapClient

        return DMapClient(
            placer=self.resolver.placer,
            shaper=self.shaper,
            peers=self.peers,
            config=config or ClientConfig(seed=self.config.seed),
            registry=self.registry,
            tracer=tracer,
        )

    def lookup_stream(self, limit: Optional[int] = None) -> List[ServableLookup]:
        """The servable workload lookups, in event order."""
        if limit is None:
            return list(self.servable)
        return self.servable[:limit]

    def analytic_rtt_ms(self, guid: GUID, source_asn: int) -> float:
        """The resolver's predicted lookup RTT on identical state."""
        return self.resolver.lookup(guid, source_asn).rtt_ms
