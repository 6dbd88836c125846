"""The live lane: wire-measured RTTs vs. the analytic resolver.

The differential lanes in :mod:`repro.validation.differ` cross-check the
three *offline* engines against each other.  This lane closes the last
gap: it boots a real :class:`~repro.net.cluster.LocalCluster` (asyncio
datagram servers, shaped loopback wire) and replays workload lookups
through a live :class:`~repro.net.client.DMapClient`, comparing every
wire-measured lookup against the analytic
:class:`~repro.core.resolver.DMapResolver` on identical seeds and
identical stores.

The client walks the replicas in the resolver's best-first order, so
every live lookup that saw no timeout must match the resolver's per
query: the same ``served_by`` and the same ``(asn, outcome)`` attempt
sequence, so a replica that answers "GUID missing" on the wire must be
a miss in the resolver's walk too.  (A timed-out attempt is a shaped
packet loss, which the resolver does not model, so such lookups are
left out of that comparison.)  The check
also asserts the median of per-query live/analytic RTT ratios stays
within a pinned tolerance — the two latencies agree up to event-loop
scheduling noise — and that success stays ≥ ``min_success_rate``.
"""

from __future__ import annotations

import asyncio
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.resolver import LookupResult
from ..errors import DMapError
from ..net.client import LiveLookupResult
from ..net.cluster import ClusterConfig, LocalCluster
from ..obs.trace import OUTCOME_TIMEOUT

#: Pinned acceptance bounds: the selftest, the tests, and CI's net-smoke
#: job all assert against these same numbers.
DEFAULT_TOLERANCE = 0.25
DEFAULT_MIN_SUCCESS_RATE = 0.99


@dataclass(frozen=True)
class LiveComparison:
    """Outcome of one live-vs-analytic run.

    ``median_ratio`` is the median over queries of
    ``live_rtt / analytic_rtt`` — robust to a few scheduler-delayed
    outliers, 1.0 under perfect shaping.  ``compared`` counts the
    successful lookups with no timed-out attempt; ``mismatches`` those
    among them whose ``served_by`` or ``(asn, outcome)`` attempt
    sequence differs from the resolver's.
    """

    queries: int
    successes: int
    failures: int
    n_nodes: int
    tolerance: float
    min_success_rate: float
    median_live_ms: float
    median_analytic_ms: float
    median_ratio: float
    compared: int
    mismatches: int
    ratios: Tuple[float, ...] = field(repr=False, default=())

    @property
    def success_rate(self) -> float:
        return self.successes / self.queries if self.queries else 0.0

    @property
    def within_tolerance(self) -> bool:
        return abs(self.median_ratio - 1.0) <= self.tolerance

    @property
    def ok(self) -> bool:
        return (
            self.within_tolerance
            and self.success_rate >= self.min_success_rate
            and self.mismatches == 0
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "queries": self.queries,
            "successes": self.successes,
            "failures": self.failures,
            "success_rate": self.success_rate,
            "n_nodes": self.n_nodes,
            "median_live_ms": self.median_live_ms,
            "median_analytic_ms": self.median_analytic_ms,
            "median_ratio": self.median_ratio,
            "tolerance": self.tolerance,
            "min_success_rate": self.min_success_rate,
            "compared": self.compared,
            "mismatches": self.mismatches,
            "ok": self.ok,
        }

    def render(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        return (
            f"live lane [{verdict}]: {self.successes}/{self.queries} lookups ok "
            f"({100.0 * self.success_rate:.2f}%) across {self.n_nodes} nodes | "
            f"median live {self.median_live_ms:.1f} ms vs analytic "
            f"{self.median_analytic_ms:.1f} ms (ratio {self.median_ratio:.3f}, "
            f"tolerance ±{self.tolerance:.2f}) | "
            f"{self.mismatches} of {self.compared} timeout-free lookups differ "
            f"from the resolver's walk"
        )


async def _run_queries(
    cluster: LocalCluster, queries: int
) -> Tuple[List[Optional[LiveLookupResult]], List[LookupResult]]:
    """Sequentially replay ``queries`` servable lookups on the wire.

    Returns the per-query live results (``None`` where the lookup
    failed) and the resolver's results on the same state.  Sequential
    issue keeps each measurement free of cross-query event-loop
    contention.  The wire asks first: a resolver miss triggers the
    §III-D.1 lazy pull, which would repair a replica's store before the
    wire could read it.
    """
    await cluster.start()
    client = cluster.client()
    await client.start()
    live: List[Optional[LiveLookupResult]] = []
    analytic: List[LookupResult] = []
    try:
        stream = cluster.lookup_stream()
        for i in range(queries):
            lookup = stream[i % len(stream)]
            try:
                live.append(await client.lookup(lookup.guid, lookup.source_asn))
            except DMapError:
                live.append(None)
            analytic.append(cluster.resolver.lookup(lookup.guid, lookup.source_asn))
    finally:
        client.close()
        await cluster.stop()
    return live, analytic


def _walk(attempts) -> List[Tuple[int, str]]:
    """The ``(asn, outcome)`` pairs of a lookup's attempts, in order."""
    return [(a.asn, a.outcome) for a in attempts]


def run_live_check(
    seed: int = 0,
    queries: int = 200,
    scale: str = "small",
    max_nodes: int = 25,
    n_guids: int = 150,
    k: int = 5,
    loss_rate: float = 0.0,
    time_scale: Optional[float] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    min_success_rate: float = DEFAULT_MIN_SUCCESS_RATE,
    cluster: Optional[LocalCluster] = None,
) -> LiveComparison:
    """Boot a seeded cluster, replay lookups, compare against analytic.

    A pre-built ``cluster`` can be passed (tests reuse one across
    checks); otherwise one is built from the arguments.  The cluster is
    started and stopped inside a private event loop, so this function is
    callable from synchronous CLI / pytest code.
    """
    if cluster is None:
        kwargs = dict(
            scale=scale,
            seed=seed,
            k=k,
            max_nodes=max_nodes,
            n_guids=n_guids,
            n_lookups=max(queries, 1) * 2,
            loss_rate=loss_rate,
        )
        if time_scale is not None:
            kwargs["time_scale"] = time_scale
        cluster = LocalCluster.build(ClusterConfig(**kwargs))
    live, analytic = asyncio.run(_run_queries(cluster, queries))

    ratios = [
        got.rtt_ms / want.rtt_ms
        for got, want in zip(live, analytic)
        if got is not None and want.rtt_ms > 0.0
    ]
    compared = mismatches = 0
    for got, want in zip(live, analytic):
        if got is None or any(a.outcome == OUTCOME_TIMEOUT for a in got.attempts):
            continue
        compared += 1
        if got.served_by != want.served_by or _walk(got.attempts) != _walk(
            want.attempts
        ):
            mismatches += 1
    measured_ok = [got.rtt_ms for got in live if got is not None]
    return LiveComparison(
        queries=len(live),
        successes=len(measured_ok),
        failures=len(live) - len(measured_ok),
        n_nodes=len(cluster.node_asns),
        tolerance=tolerance,
        min_success_rate=min_success_rate,
        median_live_ms=statistics.median(measured_ok) if measured_ok else 0.0,
        median_analytic_ms=(
            statistics.median(want.rtt_ms for want in analytic) if analytic else 0.0
        ),
        median_ratio=statistics.median(ratios) if ratios else 0.0,
        compared=compared,
        mismatches=mismatches,
        ratios=tuple(ratios),
    )
