"""Workload ``live-250qps``: the asyncio serving cluster below its knee.

A ``LocalCluster`` on the small substrate (50 nodes, K=5, 200 GUIDs, a
pool of 2,000 lookups, time scale 0.5, no loss) is driven by one
``DMapClient`` in an open loop at 250 lookups per wall second for the
run's duration: lookup ``i`` is due at ``i / 250`` s whatever earlier
lookups are doing.  Latency is timed from the due time, so a stalled
generator is charged to the lookups it delays, and mapped to virtual
milliseconds through the shaper; how late the generator ran is recorded
too.  At about 1.3 ms of CPU per lookup this rate keeps one core about a
third busy.  It exercises the codec, the node handler, the client's
K-way race and the event-loop timers, and no offline layer.  Overload is
deliberately left out: past the knee, runs of the same code are bistable.

Output check: every answer's locators must equal the mapping in the
cluster resolver's stores, and ``served_by`` must be one of the GUID's
hosting ASs.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import DMapError
from repro.experiments.common import SCALES, Environment
from repro.net.client import LiveLookupResult
from repro.net.cluster import ClusterConfig, LocalCluster
from repro.topology.routing import Router

from .util import RunResult, nearest_rank

SUBSTRATE_SEED = 0
#: Offered load in lookups per wall second; the workload is named after it.
QPS = 250.0
#: The cluster's default wall-to-virtual time scale.
TIME_SCALE = 0.5


@dataclass(frozen=True)
class LiveSize:
    max_nodes: int = 50
    n_guids: int = 200
    n_lookups: int = 2_000


FULL = LiveSize()
SMOKE = LiveSize(max_nodes=20, n_guids=50, n_lookups=300)


class Live250:
    name = "live-250qps"
    cold_setups = 5
    warm_setups = 13
    host_bound = ()

    def __init__(self, seed: int, seconds: float, size: LiveSize = FULL) -> None:
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self._loop = asyncio.new_event_loop()

    # ------------------------------------------------------------------
    # Set-up: substrate, cluster build, node binding, client socket
    # ------------------------------------------------------------------
    def setup(self, cache_dir: str):
        return self._loop.run_until_complete(self._setup(cache_dir))

    async def _setup(self, cache_dir: str):
        size = self.size
        env = Environment(SCALES["small"], SUBSTRATE_SEED, cache_dir=cache_dir)
        config = ClusterConfig(scale="small", seed=self.seed, k=5,
                               max_nodes=size.max_nodes, n_guids=size.n_guids,
                               n_lookups=size.n_lookups, time_scale=TIME_SCALE,
                               loss_rate=0.0)
        cluster = LocalCluster.build(config, environment=env)
        await cluster.start()
        client = cluster.client()
        await client.start()
        return cluster, client

    def teardown(self, state) -> None:
        cluster, client = state
        client.close()
        self._loop.run_until_complete(cluster.stop())

    def routers(self, state) -> List[Router]:
        return [state[0].resolver.router]

    def close(self) -> None:
        self._loop.close()

    # ------------------------------------------------------------------
    # Timed phase
    # ------------------------------------------------------------------
    def run(self, state) -> RunResult:
        cluster, client = state
        counter = cluster.registry.counter
        names = ("net.node.frames_rx", "net.client.late_responses",
                 "net.client.attempt_timeouts")
        before = {name: counter(name).total() for name in names}
        cpu0 = time.process_time()
        answers, lags, run_s = self._loop.run_until_complete(self._drive(cluster, client))
        cpu_s = time.process_time() - cpu0
        delta = {name: counter(name).total() - before[name] for name in names}

        n = len(answers)
        latencies = [cluster.shaper.virtual_ms(wall) for _lookup, got, wall in answers
                     if isinstance(got, LiveLookupResult)]
        return RunResult(
            run_s=run_s,
            busy_s=cpu_s,
            attempted=n,
            failed=n - len(latencies),
            lookup_ms=latencies,
            timings={
                "net.gen_lag_p50_ms": 1e3 * nearest_rank(lags, 0.50),
                "net.gen_lag_p99_ms": 1e3 * nearest_rank(lags, 0.99),
                "net.lookup_p99_ms": nearest_rank(latencies, 0.99),
                "net.cpu_ms_per_lookup": 1e3 * cpu_s / n,
            },
            counts={
                "net.datagrams_per_lookup": delta["net.node.frames_rx"] / n,
                "net.late_responses_per_lookup": delta["net.client.late_responses"] / n,
                "net.attempt_timeouts": delta["net.client.attempt_timeouts"],
            },
            payload=answers,
        )

    async def _drive(self, cluster: LocalCluster, client):
        """Open loop; returns ``(lookup, result or error, wall s from
        due time)`` per lookup, the generator lags and the phase's wall
        time."""
        stream = cluster.lookup_stream()
        n = max(1, round(QPS * self.seconds))
        lookups = [stream[i % len(stream)] for i in range(n)]
        loop = asyncio.get_running_loop()
        interval = 1.0 / QPS

        async def one(lookup, due: float):
            try:
                got = await client.lookup(lookup.guid, lookup.source_asn)
            except DMapError as exc:
                got = exc
            return lookup, got, loop.time() - due

        tasks = []
        lags: List[float] = []
        wall0 = time.perf_counter()
        start = loop.time()
        for i, lookup in enumerate(lookups):
            due = start + i * interval
            delay = due - loop.time()
            if delay > 0.0:
                await asyncio.sleep(delay)
            lags.append(loop.time() - due)
            tasks.append(loop.create_task(one(lookup, due)))
        answers = await asyncio.gather(*tasks)
        return answers, lags, time.perf_counter() - wall0

    # ------------------------------------------------------------------
    # Output check
    # ------------------------------------------------------------------
    def check(self, state, result: RunResult) -> Tuple[int, str]:
        cluster, _client = state
        resolver = cluster.resolver
        bad = 0
        for lookup, got, _wall in result.payload:
            if not isinstance(got, LiveLookupResult):
                continue  # already counted as failed
            hosting = set(resolver.replica_sets[lookup.guid].all_asns)
            entry = resolver.store_at(got.served_by).get(lookup.guid)
            if (got.served_by not in hosting or entry is None
                    or got.locators != tuple(int(loc) for loc in entry.locators)):
                bad += 1
        return bad, ""

    def derive(self, spans: Dict[str, float], traced: RunResult) -> Dict[str, float]:
        n = traced.attempted
        return {
            "net.codec_us_per_lookup": 1e6 * spans["net.codec_s"] / n,
            "net.placement_us_per_lookup": 1e6 * spans["hashing.placement_s"] / n,
        }
