"""Workload ``mobility-rw``: reads beside writes through the
``DMapNetwork`` façade.

On the small substrate (400 ASs, K=5, local replica on) the run first
registers 10,000 hosts at population-weighted ASs, then issues 40,000
time-ordered operations: 75% ``lookup`` of a Mandelbrot-Zipf-ranked
host from a population-weighted source AS, 25% ``move_host`` of a
uniformly drawn host to a seeded neighbour of its current AS.  This is
the scalar per-call path: placement is re-derived on every call, and
every write mints a locator through the prefix table.  Routing rows are
negligible (400 ASs), so a substrate gain on ``fig4-evict`` should not
move this workload, and a read-side gain that costs writes shows here.

Output check, outside the timer: every lookup must return the locator
of the host's latest attachment and the RTT the protocol predicts from
an independent batch placement (``repro.fastpath.placement``) and the
router: the closest replica's round trip, or the §III-C local copy when
the host sits in the source AS and answers no later.  The digest of the
RTT sequence must also equal the stored reference when one exists for
the seed.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.guid import GUID
from repro.errors import DMapError
from repro.experiments.common import SCALES, Environment
from repro.fastpath.placement import batch_hosting_asns
from repro.service import DMapNetwork
from repro.topology.routing import Router
from repro.workload.popularity import MandelbrotZipf
from repro.workload.sources import SourceSampler

from .util import RunResult, nearest_rank, work_clock

SUBSTRATE_SEED = 0
LOOKUP, MOVE = 0, 1
#: Share of the operation stream that are moves.
MOVE_SHARE = 0.25


@dataclass(frozen=True)
class MobilitySize:
    n_hosts: int = 10_000
    n_ops: int = 40_000
    reference_key: Optional[str] = "small-10000-40000"


FULL = MobilitySize()
SMOKE = MobilitySize(n_hosts=300, n_ops=1_200, reference_key=None)


@dataclass
class Inputs:
    hosts: List[GUID]
    homes: List[int]
    #: (kind, host index, AS, clock gap ms): the AS is the lookup's
    #: source or the move's destination.
    ops: List[Tuple[int, int, int, float]]


class MobilityRW:
    name = "mobility-rw"
    cold_setups = 5
    warm_setups = 13
    host_bound = ("run_s", "lookup_p50_ms", "lookup_p90_ms")

    def __init__(self, seed: int, size: MobilitySize = FULL,
                 references: Optional[Dict[str, Dict[str, str]]] = None) -> None:
        self.seed = seed
        self.size = size
        refs = (references or {}).get(size.reference_key or "", {})
        self._reference: Optional[str] = refs.get(str(seed))

    def setup(self, cache_dir: str) -> DMapNetwork:
        env = Environment(SCALES["small"], SUBSTRATE_SEED, cache_dir=cache_dir)
        return DMapNetwork(env.topology, env.table, k=5, seed=self.seed,
                           local_replica=True)

    def teardown(self, net: DMapNetwork) -> None:
        pass

    def routers(self, net: DMapNetwork) -> List[Router]:
        return [net.router]

    def make_inputs(self, net: DMapNetwork) -> Inputs:
        size = self.size
        rng = np.random.default_rng(self.seed)
        sampler = SourceSampler(net.topology, rng)
        hosts = [GUID.from_name(f"host-{i}") for i in range(size.n_hosts)]
        homes = [int(a) for a in sampler.sample(size.n_hosts)]
        kinds = np.where(rng.random(size.n_ops) < MOVE_SHARE, MOVE, LOOKUP)
        n_moves = int(np.count_nonzero(kinds == MOVE))
        n_lookups = size.n_ops - n_moves
        ranks = MandelbrotZipf(size.n_hosts).sample_ranks(n_lookups, rng)
        sources = sampler.sample(n_lookups)
        movers = rng.integers(0, size.n_hosts, n_moves)
        picks = rng.random(n_moves)
        gaps = rng.exponential(1.0, size.n_ops)

        current = list(homes)
        ops: List[Tuple[int, int, int, float]] = []
        lookup_i = move_i = 0
        for kind, gap in zip(kinds.tolist(), gaps.tolist()):
            if kind == LOOKUP:
                ops.append((LOOKUP, int(ranks[lookup_i]) - 1,
                            int(sources[lookup_i]), gap))
                lookup_i += 1
            else:
                host = int(movers[move_i])
                # Sorted: a topology loaded from the cache lists neighbours
                # in another order than a freshly generated one.
                neighbors = sorted(net.topology.neighbors(current[host]))
                to_asn = int(neighbors[int(picks[move_i] * len(neighbors))])
                current[host] = to_asn
                ops.append((MOVE, host, to_asn, gap))
                move_i += 1
        return Inputs(hosts, homes, ops)

    def run(self, net: DMapNetwork) -> RunResult:
        inputs = self.make_inputs(net)
        hosts = inputs.hosts
        clock = work_clock
        results: List[Optional[object]] = []
        read_s: List[float] = []
        write_s: List[float] = []
        failed = 0
        start = clock()
        for guid, asn in zip(hosts, inputs.homes):
            try:
                net.register_host(guid, asn)
            except DMapError:
                failed += 1
        for kind, host, asn, gap in inputs.ops:
            net.advance_time(gap)
            try:
                if kind == LOOKUP:
                    t0 = clock()
                    result = net.lookup(hosts[host], from_asn=asn)
                    read_s.append(clock() - t0)
                    results.append(result)
                else:
                    t0 = clock()
                    net.move_host(hosts[host], to_asn=asn)
                    write_s.append(clock() - t0)
            except DMapError:
                failed += 1
                if kind == LOOKUP:
                    results.append(None)
        run_s = clock() - start
        found = [r for r in results if r is not None]
        return RunResult(
            run_s=run_s,
            busy_s=run_s,
            attempted=len(hosts) + len(inputs.ops),
            failed=failed,
            lookup_ms=[1e3 * t for t in read_s],
            timings={
                "service.read_p50_us": 1e6 * nearest_rank(read_s, 0.50),
                "service.read_p99_us": 1e6 * nearest_rank(read_s, 0.99),
                "service.write_p50_us": 1e6 * nearest_rank(write_s, 0.50),
                "service.write_p99_us": 1e6 * nearest_rank(write_s, 0.99),
            },
            counts={
                "core.resolver.local_win_ratio":
                    sum(r.used_local for r in found) / max(1, len(found)),
            },
            payload=(inputs, results),
        )

    def check(self, net: DMapNetwork, result: RunResult) -> Tuple[int, str]:
        """Failed lookups (wrong locator or RTT; every lookup when the
        RTT digest differs from the stored reference) and that digest."""
        inputs, results = result.payload
        table, router = net.table, net.router
        hosting = batch_hosting_asns(
            net.resolver.placer, [g.value for g in inputs.hosts],
            table.build_interval_index(),
        ).tolist()
        lowest: Dict[int, int] = {}
        for ann in table:
            base = ann.prefix.base
            if base < lowest.get(ann.asn, base + 1):
                lowest[ann.asn] = base
        current = list(inputs.homes)
        answers = iter(results)
        bad = 0
        rtts: List[float] = []
        for kind, host, asn, _gap in inputs.ops:
            if kind == MOVE:
                current[host] = asn
                continue
            got = next(answers)
            if got is None:
                continue  # already counted as failed
            cands = hosting[host]
            expected = min(router.rtt_ms(asn, c) for c in cands)
            if current[host] == asn and asn not in cands:
                local = 2.0 * net.topology.intra_latency(asn)
                if local <= expected:
                    expected = local
            locators = [loc.value for loc in got.locators]
            if got.rtt_ms != expected or locators != [lowest[current[host]]]:
                bad += 1
            rtts.append(got.rtt_ms)
        digest = hashlib.sha256(struct.pack(f"<{len(rtts)}d", *rtts)).hexdigest()
        if self._reference is not None and digest != self._reference:
            bad = len(results)
        return bad, digest

    def derive(self, spans: Dict[str, float], traced: RunResult) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass
