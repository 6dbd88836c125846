"""CLI for the live serving runtime.

Usage::

    python -m repro.net selftest [--queries 200 --tolerance 0.25 ...]
    python -m repro.net bench    [--qps 200 --queries 1000 --json PATH]
    python -m repro.net serve    [--nodes 50 ...]

``selftest`` is the end-to-end proof: boot a seeded in-process cluster,
measure wire lookup latencies, and assert the distribution matches the
analytic resolver's Fig.-4 prediction within the pinned tolerance (exit
1 otherwise).  ``bench`` drives the cluster with the open-loop load
generator and can emit the ``BENCH_net.json`` artifact.  ``serve``
boots the cluster and keeps it bound for interactive poking.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Optional, Sequence

from .cluster import DEFAULT_TIME_SCALE, ClusterConfig, LocalCluster
from .loadgen import LoadgenConfig, run_loadgen


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="small", help="substrate scale name")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--nodes", type=int, default=50, help="max nodes to boot")
    parser.add_argument("--guids", type=int, default=200, help="workload GUIDs")
    parser.add_argument(
        "--lookups", type=int, default=2_000, help="workload lookup pool size"
    )
    parser.add_argument("--k", type=int, default=5, help="replication factor")
    parser.add_argument(
        "--loss", type=float, default=0.0, help="deterministic packet-loss rate"
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=DEFAULT_TIME_SCALE,
        help="wire seconds per virtual millisecond",
    )


def _cluster_config(args: argparse.Namespace) -> ClusterConfig:
    return ClusterConfig(
        scale=args.scale,
        seed=args.seed,
        k=args.k,
        max_nodes=args.nodes,
        n_guids=args.guids,
        n_lookups=args.lookups,
        time_scale=args.time_scale,
        loss_rate=args.loss,
    )


def _cmd_selftest(args: argparse.Namespace) -> int:
    from ..validation.live import run_live_check

    comparison = run_live_check(
        seed=args.seed,
        queries=args.queries,
        scale=args.scale,
        max_nodes=args.nodes,
        n_guids=args.guids,
        k=args.k,
        loss_rate=args.loss,
        time_scale=args.time_scale,
        tolerance=args.tolerance,
        min_success_rate=args.min_success,
    )
    if args.json:
        print(json.dumps(comparison.as_dict(), indent=2, sort_keys=True))
    else:
        print(comparison.render())
    return 0 if comparison.ok else 1


async def _bench(args: argparse.Namespace):
    cluster = LocalCluster.build(_cluster_config(args))
    await cluster.start()
    try:
        return await run_loadgen(
            cluster, LoadgenConfig(qps=args.qps, n_queries=args.queries)
        )
    finally:
        await cluster.stop()


def _cmd_bench(args: argparse.Namespace) -> int:
    report = asyncio.run(_bench(args))
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0 if report.success_rate >= args.min_success else 1


async def _serve(args: argparse.Namespace) -> None:
    cluster = LocalCluster.build(_cluster_config(args))
    await cluster.start()
    print(
        f"{len(cluster.nodes)} nodes bound "
        f"({len(cluster.servable)} servable workload lookups); Ctrl-C to stop"
    )
    for asn in cluster.node_asns:
        host, port = cluster.peers[asn]
        print(f"  AS {asn:>6} -> {host}:{port}")
    try:
        await asyncio.Event().wait()
    finally:
        await cluster.stop()


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Live asyncio DMap serving cluster over shaped loopback UDP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    selftest = sub.add_parser(
        "selftest", help="boot a seeded cluster and assert live == analytic"
    )
    _add_cluster_args(selftest)
    selftest.add_argument(
        "--queries", type=int, default=200, help="lookups to measure"
    )
    selftest.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed |median live/analytic ratio - 1| (default: pinned)",
    )
    selftest.add_argument(
        "--min-success",
        type=float,
        default=None,
        help="required lookup success rate (default: pinned)",
    )
    selftest.add_argument("--json", action="store_true", help="JSON report on stdout")
    selftest.set_defaults(func=_cmd_selftest)

    bench = sub.add_parser("bench", help="open-loop load generation -> BENCH_net.json")
    _add_cluster_args(bench)
    bench.add_argument("--qps", type=float, default=200.0, help="offered load")
    bench.add_argument("--queries", type=int, default=1_000, help="queries to issue")
    bench.add_argument(
        "--min-success", type=float, default=0.99, help="required success rate"
    )
    bench.add_argument("--json", help="write the report to this path")
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser("serve", help="boot the cluster and keep it bound")
    _add_cluster_args(serve)
    serve.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    if args.command == "selftest":
        from ..validation.live import DEFAULT_MIN_SUCCESS_RATE, DEFAULT_TOLERANCE

        if args.tolerance is None:
            args.tolerance = DEFAULT_TOLERANCE
        if args.min_success is None:
            args.min_success = DEFAULT_MIN_SUCCESS_RATE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
