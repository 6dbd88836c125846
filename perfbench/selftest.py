"""Self-test of the benchmark: a reduced-size pass of every workload.

    python3 perfbench/selftest.py

Each workload runs at its ``SMOKE`` size, untraced and traced (about a
minute in all on a 2-core host).  The test fails unless every run's
output checks pass and every metric ``BENCHMARK.json`` declares is
emitted with its unit as a finite number, every end-to-end metric is
positive, and every per-layer metric is non-zero on at least one
workload (so each layer is really measured somewhere).
"""

from __future__ import annotations

import math
import os
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_result(name: str, trace: bool, result: Dict, declared: Dict[str, str]) -> List[str]:
    where = f"{name} trace={int(trace)}"
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: output check failed "
                        f"({result['failed']} of {result['attempted']})")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for metric, unit in declared.items():
        entry = metrics.get(metric, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{where}: {metric} unit {entry.get('unit')!r} != {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {metric} = {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {metric} = {value!r} is not positive")
    return problems


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.run import WORKLOADS, declared_metrics, execute

    problems: List[str] = []
    layers_seen: Dict[str, float] = {}
    for name in WORKLOADS:
        for trace in (False, True):
            _record, result = execute(name, seed=1, seconds=2.0, trace=trace, smoke=True)
            problems += check_result(name, trace, result, declared_metrics(trace))
            print(f"{name} trace={int(trace)}: attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            if trace:
                for metric, entry in result["metrics"].items():
                    layers_seen[metric] = max(layers_seen.get(metric, 0.0),
                                              abs(entry["value"]))
    # net.attempt_timeouts is 0 on a loss-free cluster by design.
    idle = sorted(m for m, v in layers_seen.items()
                  if v == 0 and m != "net.attempt_timeouts")
    if idle:
        problems.append(f"per-layer metrics zero on every workload: {idle}")
    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
