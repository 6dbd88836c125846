"""E3 — Figure 5: effect of BGP churn on query response times (K = 5).

BGP views at different query origins can lag the true prefix table, so a
lookup may reach an AS that does not host the mapping, receive a "GUID
missing" reply, and retry the next replica (§IV-B.2b).  The paper sweeps
the per-lookup failure probability over {0%, 5%, 10%} and reports that 5%
failures shift the median only 40.5 → 41.3 ms but the 95th percentile
86.1 → 129.1 ms — churn hurts the tail, not the typical query.  That
median-stable / tail-heavy signature is the shape this experiment checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.resolver import DMapResolver
from ..sim.failures import ChurnFailureModel
from ..sim.metrics import LatencySummary, summarize
from ..workload.generator import WorkloadConfig, WorkloadGenerator
from .common import Environment, get_environment
from .reporting import format_cdf_table, format_table, percentile_row

#: The failure rates of Fig. 5.
FIG5_FAILURE_RATES = (0.0, 0.05, 0.10)

#: Paper reference points (§IV-B.2b): rate -> (median, p95) in ms.
PAPER_FIG5 = {0.0: (40.5, 86.1), 0.05: (41.3, 129.1)}


@dataclass
class Fig5Result:
    """Response-time samples per injected failure rate.

    ``mean_attempts_by_rate`` is the measured mean number of replicas a
    lookup contacted, summed over its retry rounds.
    """

    scale: str
    k: int
    rtts_by_rate: Dict[float, np.ndarray]
    mean_attempts_by_rate: Dict[float, float]

    def summaries(self) -> Dict[float, LatencySummary]:
        return {rate: summarize(v) for rate, v in self.rtts_by_rate.items()}

    def render(self) -> str:
        thresholds = (20, 40, 60, 86, 100, 129, 173, 250, 500, 1000)
        series = {
            f"{rate:.0%} failure": rtts for rate, rtts in self.rtts_by_rate.items()
        }
        rows = [
            list(percentile_row(f"{rate:.0%}", rtts))
            + [f"{self.mean_attempts_by_rate[rate]:.2f}"]
            for rate, rtts in self.rtts_by_rate.items()
        ]
        return "\n".join(
            [
                f"Figure 5 — BGP churn impact, K={self.k} ({self.scale} scale)",
                format_cdf_table(series, thresholds),
                "",
                format_table(
                    ["failure rate", "mean [ms]", "median [ms]", "95th [ms]", "attempts"],
                    rows,
                ),
            ]
        )


def run_fig5(
    scale: Optional[str] = None,
    failure_rates: Sequence[float] = FIG5_FAILURE_RATES,
    k: int = 5,
    seed: int = 0,
    environment: Optional[Environment] = None,
    workload_override: Optional[WorkloadConfig] = None,
) -> Fig5Result:
    """Run the Fig. 5 sweep.

    Uses the instant resolver with a :class:`ChurnFailureModel` —
    identical retry arithmetic to the event simulation (cross-checked in
    the test suite).
    """
    env = environment or get_environment(scale, seed)
    workload_config = workload_override or WorkloadConfig(
        n_guids=env.scale.n_guids, n_lookups=env.scale.n_lookups, seed=seed
    )
    workload = WorkloadGenerator(env.topology, workload_config).generate()

    rtts_by_rate: Dict[float, np.ndarray] = {}
    attempts_by_rate: Dict[float, float] = {}
    for rate in failure_rates:
        resolver = DMapResolver(env.table, env.router, k=k)
        counts: List[int] = []
        rtts = workload.run_through_resolver(
            resolver,
            env.table,
            failure_model=ChurnFailureModel(rate, seed=seed + 17),
            attempt_counts=counts,
        )
        rtts_by_rate[rate] = np.asarray(rtts, dtype=float)
        attempts_by_rate[rate] = float(np.mean(counts))
    return Fig5Result(env.scale.name, k, rtts_by_rate, attempts_by_rate)


def main(scale: Optional[str] = None) -> Fig5Result:
    """CLI entry point: run and print."""
    result = run_fig5(scale)
    print(result.render())
    return result


if __name__ == "__main__":
    main()
