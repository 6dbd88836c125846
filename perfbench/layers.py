"""Which public functions the traced run wraps, and the per-layer metrics
derived from their spans.

Every workload installs the same wrappers, so every traced run reports
every layer; a layer a workload never enters reads 0 there (the
prediction for, e.g., the fastpath kernel on ``mobility-rw``).
"""

from __future__ import annotations

from typing import Dict

from .spans import SpanTracer

#: Phases ``run.py`` records spans under.
COLD, WARM, RUN = "cold", "warm", "run"


def install_wrappers(tracer: SpanTracer) -> None:
    """Register a wrapper on each traced function (activated by
    :meth:`SpanTracer.installed`)."""
    import repro.experiments.common as experiments_common
    import repro.net.client as net_client
    import repro.net.node as net_node
    import repro.topology.datasets as datasets
    from repro.bgp.table import GlobalPrefixTable
    from repro.core.resolver import DMapResolver
    from repro.experiments.fig4_response_time import Fig4Result
    from repro.fastpath.engine import FastpathEngine
    from repro.hashing.rehash import GuidPlacer
    from repro.service import DMapNetwork
    from repro.topology.routing import Router
    from repro.workload.generator import WorkloadGenerator

    wrap = tracer.wrap
    # Substrate set-up.  ``Environment`` calls the topology generator and
    # the prefix-table generator through names bound in
    # ``repro.experiments.common``.
    wrap(experiments_common, "generate_internet_topology", "topology.generate")
    wrap(datasets, "load_topology", "topology.load")
    wrap(experiments_common, "generate_global_prefix_table", "bgp.prefix_table")
    wrap(Router, "__init__", "routing.router_init")
    # Routing rows (one Dijkstra per miss of the router's LRU).
    wrap(Router, "latency_row", "routing.row")
    wrap(Router, "hop_row", "routing.row")
    # BGP table.
    wrap(GlobalPrefixTable, "build_interval_index", "bgp.interval_index")
    wrap(GlobalPrefixTable, "representative_address", "bgp.representative_address")
    wrap(GlobalPrefixTable, "resolve", "bgp.lpm", timed=False)
    # Offline pipeline.
    wrap(WorkloadGenerator, "generate", "workload.generate")
    wrap(FastpathEngine, "index_guids", "fastpath.placement")
    wrap(FastpathEngine, "lookup_batch", "fastpath.kernel")
    wrap(Fig4Result, "render", "experiments.render")
    # Scalar per-call path.
    wrap(GuidPlacer, "resolve_all", "hashing.placement")
    wrap(DMapResolver, "insert", "core.resolver.write")
    wrap(DMapResolver, "update", "core.resolver.write")
    wrap(DMapResolver, "lookup", "core.resolver.lookup")
    wrap(DMapNetwork, "register_host", "service.register")
    wrap(DMapNetwork, "move_host", "service.move")
    # Wire codec, as bound in the client and node modules.
    for module in (net_client, net_node):
        wrap(module, "encode", "net.codec")
        wrap(module, "decode", "net.codec")


def span_metrics(tracer: SpanTracer, n_cold: int, n_warm: int) -> Dict[str, float]:
    """Per-layer metrics read from the span totals.

    Set-up layers are per set-up (the mean over the ``n_cold`` cold or
    ``n_warm`` warm ones); run layers are totals over the traced timed
    phase.
    """
    calls, self_s = tracer.calls, tracer.self_s
    return {
        "topology.generate_s": self_s(COLD, "topology.generate") / n_cold,
        "topology.load_s": self_s(WARM, "topology.load") / n_warm,
        "bgp.prefix_table_s": self_s(WARM, "bgp.prefix_table") / n_warm,
        "routing.router_init_s": self_s(WARM, "routing.router_init") / n_warm,
        "routing.row_calls": calls(RUN, "routing.row"),
        "routing.rows_s": self_s(RUN, "routing.row"),
        "bgp.interval_index_builds": calls(RUN, "bgp.interval_index"),
        "bgp.interval_index_s": self_s(RUN, "bgp.interval_index"),
        "bgp.representative_address_calls": calls(RUN, "bgp.representative_address"),
        "bgp.representative_address_s": self_s(RUN, "bgp.representative_address"),
        "bgp.lpm_calls": calls(RUN, "bgp.lpm"),
        "workload.generate_s": self_s(RUN, "workload.generate"),
        "fastpath.placement_calls": calls(RUN, "fastpath.placement"),
        "fastpath.placement_s": self_s(RUN, "fastpath.placement"),
        "fastpath.kernel_s": self_s(RUN, "fastpath.kernel"),
        "experiments.render_s": self_s(RUN, "experiments.render"),
        "hashing.placement_calls": calls(RUN, "hashing.placement"),
        "hashing.placement_s": self_s(RUN, "hashing.placement"),
        "core.resolver.write_s": self_s(RUN, "core.resolver.write"),
        "core.resolver.lookup_s": self_s(RUN, "core.resolver.lookup"),
        "service.register_s": self_s(RUN, "service.register"),
        "service.move_s": self_s(RUN, "service.move"),
        "net.codec_s": self_s(RUN, "net.codec"),
    }
