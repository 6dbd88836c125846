"""Workload ``fig4-evict``: the Fig. 4 sweep through the fastpath engine
with a routing-row cache too small for the run's sources.

``run_fig4(engine="fastpath")`` runs the full K in {1, 3, 5} sweep on the
medium substrate (3,000 ASs, 10^4 GUIDs, 10^5 lookups per K).  The
Environment's router holds 448 rows, one sixth of the ~2,680 distinct
source ASs: the ratio of the paper-scale run (23,048 sources against
the default 4,096 rows).  Because K loops outside the source groups,
every row is recomputed for every K, which is the LRU scan thrash that
dominates the paper-scale run.  Rows, placement and the interval index
dominate; the resolver and the live cluster are unused.

The output check compares the SHA-256 of the rendered report with a
reference: a stored one for the seeds in ``references.json`` (computed
with the scalar resolver, the oracle engine), else a report computed in
this run by the scalar resolver.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.common import SCALES, Environment
from repro.experiments.fig4_response_time import run_fig4
from repro.topology.routing import Router
from repro.workload.generator import WorkloadConfig

from .util import RunResult, work_clock

#: Seed of the substrate (topology and prefix table); ``--seed`` drives
#: the workload drawn on it.
SUBSTRATE_SEED = 0


@dataclass(frozen=True)
class Fig4Size:
    scale: str = "medium"
    cache_rows: int = 448
    #: Workload sizes; ``None`` keeps the scale's (paper-ratio) sizes.
    n_guids: Optional[int] = None
    n_lookups: Optional[int] = None
    #: Key of the stored references valid for this size.
    reference_key: Optional[str] = "medium"


FULL = Fig4Size()
SMOKE = Fig4Size(scale="small", cache_rows=40, n_guids=500, n_lookups=3_000,
                 reference_key=None)


class Fig4Evict:
    name = "fig4-evict"
    cold_setups = 2
    warm_setups = 5
    host_bound = ("run_s",)

    def __init__(self, seed: int, size: Fig4Size = FULL,
                 references: Optional[Dict[str, Dict[str, str]]] = None) -> None:
        self.seed = seed
        self.size = size
        refs = (references or {}).get(size.reference_key or "", {})
        self._reference: Optional[str] = refs.get(str(seed))

    def setup(self, cache_dir: str) -> Environment:
        env = Environment(SCALES[self.size.scale], SUBSTRATE_SEED, cache_dir=cache_dir)
        env.router = Router(env.topology, cache_size=self.size.cache_rows)
        return env

    def teardown(self, env: Environment) -> None:
        pass

    def routers(self, env: Environment) -> List[Router]:
        return [env.router]

    def _override(self) -> Optional[WorkloadConfig]:
        if self.size.n_guids is None:
            return None
        return WorkloadConfig(n_guids=self.size.n_guids,
                              n_lookups=self.size.n_lookups, seed=self.seed)

    def run(self, env: Environment) -> RunResult:
        start = work_clock()
        result = run_fig4(environment=env, seed=self.seed, engine="fastpath",
                          workload_override=self._override())
        report = result.render()
        run_s = work_clock() - start
        rtts = np.concatenate([result.rtts_by_k[k] for k in sorted(result.rtts_by_k)])
        return RunResult(
            run_s=run_s,
            busy_s=run_s,
            attempted=int(rtts.size),
            failed=int(sum(result.failed_by_k.values())),
            lookup_ms=rtts,
            payload=report,
        )

    def check(self, env: Environment, result: RunResult) -> Tuple[int, str]:
        """Failed lookups (all of them when the report differs from the
        reference) and the report's SHA-256."""
        digest = hashlib.sha256(result.payload.encode()).hexdigest()
        failed = 0 if digest == self._reference_digest(env) else result.attempted
        return failed, digest

    def _reference_digest(self, env: Environment) -> str:
        if self._reference is None:
            oracle = copy.copy(env)
            oracle.router = Router(env.topology)
            report = run_fig4(environment=oracle, seed=self.seed, engine="scalar",
                              workload_override=self._override()).render()
            self._reference = hashlib.sha256(report.encode()).hexdigest()
        return self._reference

    def derive(self, spans: Dict[str, float], traced: RunResult) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass
