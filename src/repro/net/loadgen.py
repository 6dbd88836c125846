"""Open-loop asyncio load generator over a live cluster.

Drives a :class:`~repro.net.cluster.LocalCluster` with the servable
portion of its :mod:`repro.workload` stream at a target QPS: query ``i``
is *launched* at wire time ``i / qps`` regardless of how earlier queries
are faring (open loop — the honest way to measure a serving system,
since a closed loop self-throttles exactly when the system degrades).
Reports sustained throughput and the virtual-millisecond latency
percentiles that land in ``BENCH_net.json``.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ClusterError, DMapError
from ..obs.trace import Tracer
from .client import LiveLookupResult


@dataclass
class LoadgenConfig:
    """Offered-load shape: ``qps`` is in wire (wall-clock) queries/s."""

    qps: float = 200.0
    n_queries: int = 1_000

    def validate(self) -> None:
        if self.qps <= 0.0:
            raise ClusterError(f"qps must be positive, got {self.qps}")
        if self.n_queries < 1:
            raise ClusterError("n_queries must be >= 1")


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 < q <= 1)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


@dataclass(frozen=True)
class BenchReport:
    """What one load-generation run measured.

    Latencies are *virtual* milliseconds (comparable to the analytic
    Fig. 4 axis); throughputs are wire queries per wall-clock second.
    """

    n_queries: int
    n_success: int
    n_failed: int
    offered_qps: float
    achieved_qps: float
    wall_s: float
    time_scale: float
    mean_ms: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    max_ms: float

    @property
    def success_rate(self) -> float:
        return self.n_success / self.n_queries if self.n_queries else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable report (the ``BENCH_net.json`` schema)."""
        return {
            "n_queries": self.n_queries,
            "n_success": self.n_success,
            "n_failed": self.n_failed,
            "success_rate": self.success_rate,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "wall_s": self.wall_s,
            "time_scale": self.time_scale,
            "latency_virtual_ms": {
                "mean": self.mean_ms,
                "p50": self.p50_ms,
                "p90": self.p90_ms,
                "p99": self.p99_ms,
                "max": self.max_ms,
            },
        }

    def render(self) -> str:
        return (
            f"{self.n_queries} queries, {self.n_success} ok "
            f"({100.0 * self.success_rate:.2f}%) | "
            f"offered {self.offered_qps:.0f} qps, sustained "
            f"{self.achieved_qps:.0f} qps over {self.wall_s:.2f}s | "
            f"virtual-ms p50={self.p50_ms:.1f} p90={self.p90_ms:.1f} "
            f"p99={self.p99_ms:.1f} max={self.max_ms:.1f}"
        )


async def run_loadgen(
    cluster,
    config: Optional[LoadgenConfig] = None,
    tracer: Optional[Tracer] = None,
) -> BenchReport:
    """Drive a started cluster at the configured open-loop rate."""
    config = config or LoadgenConfig()
    config.validate()
    stream = cluster.lookup_stream()
    if not stream:
        raise ClusterError("cluster has no servable lookups to drive")
    # Cycle the servable stream if the run asks for more queries than
    # the workload holds — the Zipf mix is preserved.
    lookups = [stream[i % len(stream)] for i in range(config.n_queries)]

    client = cluster.client(tracer=tracer)
    await client.start()
    loop = asyncio.get_running_loop()
    interval = 1.0 / config.qps
    tasks: List["asyncio.Task[LiveLookupResult]"] = []
    try:
        start = loop.time()
        for i, lookup in enumerate(lookups):
            target = start + i * interval
            delay = target - loop.time()
            if delay > 0.0:
                await asyncio.sleep(delay)
            tasks.append(
                loop.create_task(client.lookup(lookup.guid, lookup.source_asn))
            )
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        wall_s = loop.time() - start
    finally:
        client.close()

    latencies: List[float] = []
    failed = 0
    for outcome in outcomes:
        if isinstance(outcome, LiveLookupResult):
            latencies.append(outcome.rtt_ms)
        elif isinstance(outcome, DMapError):
            failed += 1
        elif isinstance(outcome, BaseException):
            raise outcome
    latencies.sort()
    return BenchReport(
        n_queries=len(lookups),
        n_success=len(latencies),
        n_failed=failed,
        offered_qps=config.qps,
        achieved_qps=len(lookups) / wall_s if wall_s > 0 else 0.0,
        wall_s=wall_s,
        time_scale=cluster.shaper.time_scale,
        mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        p50_ms=_percentile(latencies, 0.50),
        p90_ms=_percentile(latencies, 0.90),
        p99_ms=_percentile(latencies, 0.99),
        max_ms=latencies[-1] if latencies else 0.0,
    )
