"""E8 — DMap vs the §II-B/§VI baseline schemes (ablation comparison).

Not a numbered figure in the paper, but the quantitative backbone of its
related-work argument: multi-hop DHT mapping takes ~log N overlay hops
("up to 8 logical hops ... about 900 ms"), one-hop DHTs match DMap's
latency only by paying linear membership-maintenance traffic, MobileIP
binds every query to the home agent's location, and DNS-style caching
trades staleness for latency.  This experiment runs one workload through
all five schemes and reports latency, overlay hops, and maintenance
overhead side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..baselines.base import BaselineResolver
from ..baselines.dht import ChordDHT
from ..baselines.dns_like import DNSLike
from ..baselines.mobileip import MobileIP
from ..baselines.onehop_dht import OneHopDHT
from ..core.resolver import DMapResolver
from ..sim.metrics import LatencySummary, summarize
from ..workload.generator import WorkloadConfig, WorkloadGenerator
from .common import Environment, get_environment
from .reporting import format_table


@dataclass
class SchemeStats:
    """One comparison row."""

    name: str
    latency: LatencySummary
    mean_overlay_hops: float
    maintenance_bps: float


@dataclass
class BaselineComparisonResult:
    """All schemes over the same workload."""

    scale: str
    stats: List[SchemeStats]

    def render(self) -> str:
        rows = [
            [
                s.name,
                f"{s.latency.mean:.1f}",
                f"{s.latency.median:.1f}",
                f"{s.latency.p95:.1f}",
                f"{s.mean_overlay_hops:.2f}",
                f"{s.maintenance_bps:.0f}",
            ]
            for s in self.stats
        ]
        return "\n".join(
            [
                f"Baseline comparison ({self.scale} scale)",
                format_table(
                    [
                        "scheme",
                        "mean [ms]",
                        "median [ms]",
                        "95th [ms]",
                        "overlay hops",
                        "maintenance [bps/node]",
                    ],
                    rows,
                ),
            ]
        )

    def by_name(self) -> Dict[str, SchemeStats]:
        return {s.name: s for s in self.stats}


def run_baseline_comparison(
    scale: Optional[str] = None,
    k: int = 5,
    seed: int = 0,
    environment: Optional[Environment] = None,
    workload_override: Optional[WorkloadConfig] = None,
) -> BaselineComparisonResult:
    """Drive the identical insert+lookup stream through every scheme."""
    env = environment or get_environment(scale, seed)
    cfg = workload_override or WorkloadConfig(
        n_guids=min(env.scale.n_guids, 5_000),
        n_lookups=min(env.scale.n_lookups, 20_000),
        seed=seed,
    )
    workload = WorkloadGenerator(env.topology, cfg).generate()

    dmap = DMapResolver(env.table, env.router, k=k)
    baselines: List[BaselineResolver] = [
        ChordDHT(env.router),
        OneHopDHT(env.router),
        MobileIP(env.router),
        DNSLike(env.router),
    ]

    stats: List[SchemeStats] = []

    dmap_rtts = workload.run_through_resolver(dmap, env.table)
    stats.append(
        SchemeStats(f"dmap (K={k})", summarize(dmap_rtts), 1.0, 0.0)
    )

    arrays = workload.lookup_arrays()
    homes = arrays.local_asns.tolist()
    for scheme in baselines:
        rtts: List[float] = []
        hops: List[int] = []
        for guid, home in zip(arrays.guids, homes):
            scheme.insert(guid, [env.table.representative_address(home)], home)
        for idx, source in zip(arrays.guid_idx.tolist(), arrays.sources.tolist()):
            if isinstance(scheme, DNSLike):
                scheme.advance_time(5.0)  # TTLs tick between queries
            outcome = scheme.lookup(arrays.guids[idx], source)
            rtts.append(outcome.rtt_ms)
            hops.append(outcome.overlay_hops)
        stats.append(
            SchemeStats(
                scheme.name,
                summarize(rtts),
                float(np.mean(hops)) if hops else 0.0,
                scheme.maintenance_overhead_bps(),
            )
        )
    return BaselineComparisonResult(env.scale.name, stats)


def main(scale: Optional[str] = None) -> BaselineComparisonResult:
    """CLI entry point: run and print."""
    result = run_baseline_comparison(scale)
    print(result.render())
    return result


if __name__ == "__main__":
    main()
