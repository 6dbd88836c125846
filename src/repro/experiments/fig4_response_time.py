"""E1 — Figure 4: CDF of round-trip query response times for K ∈ {1,3,5}.

The paper inserts 10^5 GUIDs, issues 10^6 Mandelbrot-Zipf lookups from
population-weighted sources, and plots the response-time CDF per K
(§IV-B.2a).  Expected shape: each added replica shifts the CDF left;
K=5 roughly halves the 95th percentile relative to K=1 (86 ms vs 173 ms
in the paper); a long tail of queries from pathological-latency stub ASs
remains at every K.

Run: ``python -m repro.experiments fig4 [--scale small|medium|paper]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.resolver import DMapResolver
from ..errors import ConfigurationError
from ..obs.manifest import RunManifest, peak_rss_mb
from ..obs.trace import Tracer
from ..sim.metrics import LatencySummary, summarize
from ..sim.simulation import DMapSimulation
from ..workers import usable_cpus
from ..workload.generator import Workload, WorkloadConfig, WorkloadGenerator
from .common import Environment, get_environment
from .reporting import ascii_cdf, format_cdf_table, format_table, percentile_row

#: The K values of Fig. 4.
FIG4_K_VALUES = (1, 3, 5)


@dataclass
class Fig4Result:
    """Response-time samples and summaries per replication factor."""

    scale: str
    rtts_by_k: Dict[int, np.ndarray]
    local_hit_fraction: Dict[int, float]
    failed_by_k: Dict[int, int] = field(default_factory=dict)

    def summaries(self) -> Dict[int, LatencySummary]:
        """Table-I-style stats per K (with the failed-lookup count)."""
        return {
            k: summarize(v, failed=self.failed_by_k.get(k, 0))
            for k, v in self.rtts_by_k.items()
        }

    def render(self) -> str:
        """The textual Fig. 4: CDF read-offs plus summary rows."""
        thresholds = (10, 20, 40, 60, 86, 100, 173, 250, 500, 1000)
        series = {f"K={k}": v for k, v in self.rtts_by_k.items()}
        parts = [
            f"Figure 4 — round-trip query response time CDF ({self.scale} scale)",
            format_cdf_table(series, thresholds),
            "",
            format_table(
                ["config", "mean [ms]", "median [ms]", "95th [ms]", "success"],
                [
                    percentile_row(
                        f"K={k}", v, failed=self.failed_by_k.get(k, 0)
                    )
                    for k, v in self.rtts_by_k.items()
                ],
            ),
        ]
        max_k = max(self.rtts_by_k)
        parts.append("")
        parts.append(ascii_cdf(self.rtts_by_k[max_k], label=f"(K={max_k})"))
        return "\n".join(parts)


def run_fig4(
    scale: Optional[str] = None,
    k_values: Sequence[int] = FIG4_K_VALUES,
    seed: int = 0,
    local_replica: bool = True,
    selection_policy: str = "latency",
    environment: Optional[Environment] = None,
    workload_override: Optional[WorkloadConfig] = None,
    engine: str = "scalar",
    n_jobs: int = 0,
    trace_path: Optional[str] = None,
) -> Fig4Result:
    """Run the Fig. 4 experiment.

    ``engine`` picks the lookup engine: ``"scalar"`` (the instant
    resolver), ``"simulation"`` (the equivalent, slower discrete-event
    engine) or ``"fastpath"``.  ``local_replica`` and
    ``selection_policy`` expose the paper's §III-C and §IV-B.2a design
    knobs for ablation.  ``engine="fastpath"`` batches the lookup
    pipeline through
    :class:`~repro.fastpath.engine.FastpathEngine` (bit-identical RTTs;
    ``n_jobs`` processes share its GUID placement and its Dijkstra rows,
    ``0`` meaning every usable CPU, with the same output for any count).
    The fastpath sweeps every K in one pass: it places GUIDs once at
    ``max(k_values)`` and evaluates each K on the same (source, host)
    path cells, so the router computes them once per run rather than
    once per K.

    ``trace_path`` writes a canonical JSONL per-query trace file there
    (plus a run manifest at ``<trace_path>.manifest.json``), from which
    ``python -m repro.obs summarize-traces`` reconstructs this report.
    """
    from ..obs.export import metrics_report, write_traces
    from ..obs.manifest import manifest_path_for
    from ..obs.trace import NULL_TRACER, CollectingTracer

    if engine not in ("scalar", "fastpath", "simulation"):
        raise ConfigurationError(f"unknown engine {engine!r}")
    env = environment or get_environment(scale, seed)
    workload_config = workload_override or WorkloadConfig(
        n_guids=env.scale.n_guids, n_lookups=env.scale.n_lookups, seed=seed
    )

    tracing = trace_path is not None
    tracer = CollectingTracer() if tracing else NULL_TRACER
    manifest = RunManifest(
        experiment="fig4",
        config={
            "scale": env.scale.name,
            "seed": seed,
            "k_values": list(k_values),
            "engine": engine,
            "local_replica": local_replica,
            "selection_policy": selection_policy,
            "n_guids": workload_config.n_guids,
            "n_lookups": workload_config.n_lookups,
        },
    )

    with manifest.phase("workload"):
        workload = WorkloadGenerator(env.topology, workload_config).generate()

    rtts_by_k: Dict[int, np.ndarray] = {}
    local_hits: Dict[int, float] = {}
    failed_by_k: Dict[int, int] = {}
    workers = 1
    if engine == "fastpath":
        workers = n_jobs or usable_cpus()
        rtts_by_k = _fastpath_sweep(
            env, workload, k_values, local_replica, selection_policy,
            tracer, workers, manifest,
        )
        # As on the instant resolver: no failures, local hits untracked.
        local_hits = {k: float("nan") for k in rtts_by_k}
        failed_by_k = {k: 0 for k in rtts_by_k}
    else:
        for k in k_values:
            with manifest.phase(f"k={k}"):
                if engine == "simulation":
                    sim = DMapSimulation(
                        env.topology,
                        env.table,
                        k=k,
                        router=env.router,
                        local_replica=local_replica,
                        selection_policy=selection_policy,
                        tracer=tracer,
                    )
                    workload.apply_to_simulation(sim, env.table)
                    sim.run()
                    rtts_by_k[k] = sim.metrics.rtts()
                    local_hits[k] = sim.metrics.local_hit_fraction()
                    failed_by_k[k] = len(sim.metrics.failed)
                else:
                    resolver = DMapResolver(
                        env.table,
                        env.router,
                        k=k,
                        local_replica=local_replica,
                        selection_policy=selection_policy,
                        tracer=tracer,
                    )
                    rtts = workload.run_through_resolver(resolver, env.table)
                    rtts_by_k[k] = np.asarray(rtts, dtype=float)
                    local_hits[k] = float("nan")
                    # The instant resolver retries whole replica-set rounds
                    # until the lookup succeeds, so this path records no
                    # failures.
                    failed_by_k[k] = 0
    # Dijkstra rows computed (by any worker), and the sources whose pairs
    # were derived from neighbour rows (fallback_rows of them needed a row
    # after all); cumulative over the router's life.  ``workers`` is the
    # process count the fastpath spread its rows over.
    manifest.extra["routing"] = {**env.router.cache_stats(), "workers": workers}
    # The peak RSS of this process and of its largest waited-for child
    # (a placement or Dijkstra worker: it counts the parent's pages it
    # shares copy-on-write).
    manifest.extra["peak_rss_mb"] = peak_rss_mb()
    # Which stored substrate the run used, and whether its set-up loaded
    # it or generated it.
    manifest.extra["substrate"] = {
        "key": env.substrate_key,
        "loaded": env.substrate_loaded,
        "setup_s": env.setup_s,
    }
    if tracing:
        with manifest.phase("export"):
            count = write_traces(trace_path, tracer.traces)
            manifest.extra["trace_file"] = trace_path
            manifest.extra["trace_count"] = count
            manifest.extra["metrics"] = metrics_report(tracer.traces)
        manifest.write(manifest_path_for(trace_path))
    return Fig4Result(env.scale.name, rtts_by_k, local_hits, failed_by_k)


def _fastpath_sweep(
    env: Environment,
    workload: Workload,
    k_values: Sequence[int],
    local_replica: bool,
    selection_policy: str,
    tracer: Tracer,
    n_jobs: int,
    manifest: RunManifest,
) -> Dict[int, np.ndarray]:
    """Per-K RTTs (in event order) of the whole sweep from one engine.

    Placement runs once at ``max(k_values)``; each smaller K reads the
    placement's first K columns, which the default placer guarantees.
    """
    from ..fastpath import FastpathEngine
    from ..fastpath.placement import placement_workers

    arrays = workload.lookup_arrays()
    engine = FastpathEngine(
        env.table,
        env.router,
        k=max(k_values),
        selection_policy=selection_policy,
        local_replica=local_replica,
        tracer=tracer,
    )
    with manifest.phase("placement"):
        batch = engine.index_guids(arrays.guids, arrays.local_asns, n_jobs=n_jobs)
    manifest.extra["placement"] = {
        "workers": placement_workers(len(arrays.guids), n_jobs)
    }
    with manifest.phase("lookups"):
        results = engine.lookup_batch(
            batch,
            arrays.guid_idx,
            arrays.sources,
            n_jobs=n_jobs,
            issued_at=arrays.issued_at,
            k_values=k_values,
        )
    return {k: results[k].rtt_ms for k in k_values}


def main(
    scale: Optional[str] = None,
    engine: str = "scalar",
    n_jobs: int = 0,
    trace_path: Optional[str] = None,
) -> Fig4Result:
    """CLI entry point: run and print."""
    result = run_fig4(scale, engine=engine, n_jobs=n_jobs, trace_path=trace_path)
    print(result.render())
    return result


if __name__ == "__main__":
    main()
