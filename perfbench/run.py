"""Run one benchmark workload and print its run record.

    python3 perfbench/run.py --workload fig4-evict --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  Each run builds its substrate caches
in a fresh directory under ``.bench_build/perfbench/`` (deleted when the
run ends), times the set-up from an empty cache (``cold_setup_s``) and
from the filled one (``setup_s``), runs the timed phase, and checks the
program's outputs outside the timer.  Set-up times and CPU-bound run
times are rescaled to reference host speed by a host probe taken during
and beside them (``perfbench/README.md``, "Host-speed rescaling").

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` first repeats the timed phase untraced, then runs it again
with the layer wrappers of ``perfbench/layers.py`` installed, and reports
the per-layer metrics.  The second-to-last line of standard output is
the full run record (manifest, metrics and output digest); the last line
is the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
from contextlib import nullcontext
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig4-evict", "mobility-rw", "live-250qps")


def make_workload(name: str, seed: int, seconds: float, smoke: bool = False):
    """The workload object; ``smoke`` selects its reduced self-test size."""
    from perfbench import fig4_evict, live_qps, mobility_rw

    with open(os.path.join(ROOT, "perfbench", "references.json")) as fh:
        references = json.load(fh)
    if name == "fig4-evict":
        size = fig4_evict.SMOKE if smoke else fig4_evict.FULL
        return fig4_evict.Fig4Evict(seed, size, references.get(name))
    if name == "mobility-rw":
        size = mobility_rw.SMOKE if smoke else mobility_rw.FULL
        return mobility_rw.MobilityRW(seed, size, references.get(name))
    if name == "live-250qps":
        size = live_qps.SMOKE if smoke else live_qps.FULL
        return live_qps.Live250(seed, seconds, size)
    raise ValueError(f"unknown workload {name!r}")


def measure(wl, trace: bool, work_dir: str) -> Dict[str, object]:
    """Set up and run ``wl``; returns the record fields of this run."""
    from perfbench import layers
    from perfbench.spans import SpanTracer
    from perfbench.util import (nearest_rank, peak_rss_mb, probing, ref_loop_s,
                                speed_factor, work_clock)

    tracer = SpanTracer()
    if trace:
        layers.install_wrappers(tracer)
    phase = tracer.phase if trace else (lambda _name: nullcontext())

    # The host probe runs before the first set-up and after each timed
    # section, and, untraced, every PROBE_EVERY_S inside the CPU-bound
    # ones; each is rescaled by the probes taken during and beside it
    # (see ``speed_factor``).  The traced run takes no probes inside
    # sections, where they would land in the spans' self times.
    probes: List[float] = [ref_loop_s()]

    def timed(fn, host_bound: bool) -> Tuple[object, float, float]:
        """``fn()``, its wall time, and the factor that rescales it to
        reference speed."""
        before, inner = probes[-1], []
        # Every timed section starts from a collected heap, so the garbage
        # of earlier ones does not land in its collection pauses.
        gc.collect()
        with probing(inner) if host_bound and not trace else nullcontext():
            start = work_clock()
            out = fn()
            wall = work_clock() - start
        probes.extend([*inner, ref_loop_s()])
        return out, wall, speed_factor([before, *inner, probes[-1]])

    cold_s: List[Tuple[float, float]] = []
    setup_s: List[Tuple[float, float]] = []
    warm_dir = os.path.join(work_dir, "cache0")
    # Cold and warm set-ups alternate, so that both medians sample the
    # host over the whole set-up period rather than one stretch of it.
    # The first cold set-up fills ``warm_dir``; the last warm set-up's
    # state is the one the untraced run uses.  The previous warm state is
    # torn down first, so one substrate at a time is alive and the peak
    # RSS is the program's, not the harness's.
    state = None
    with tracer.installed():
        for i in range(max(wl.cold_setups, wl.warm_setups)):
            if state is not None:
                wl.teardown(state)
                state = None
            if i < wl.cold_setups:
                cache_dir = os.path.join(work_dir, f"cache{i}")
                with phase(layers.COLD):
                    cold, wall, factor = timed(lambda: wl.setup(cache_dir), True)
                    wl.teardown(cold)
                    del cold
                cold_s.append((wall, wall * factor))
            if i < wl.warm_setups:
                with phase(layers.WARM):
                    state, wall, factor = timed(lambda: wl.setup(warm_dir), True)
                setup_s.append((wall, wall * factor))

    plain, _wall, factor = timed(lambda: wl.run(state), bool(wl.host_bound))
    # Read before the output check, which may build an oracle of its own.
    rss_mb = peak_rss_mb()
    bad, digest = wl.check(state, plain)
    plain_failed = plain.failed + bad
    wl.teardown(state)
    state = None
    host_ref = statistics.median(probes)
    wall = {
        "setup_s": statistics.median(t[0] for t in setup_s),
        "cold_setup_s": statistics.median(t[0] for t in cold_s),
        "run_s": plain.run_s,
        "lookup_p50_ms": nearest_rank(plain.lookup_ms, 0.50),
        "lookup_p90_ms": nearest_rank(plain.lookup_ms, 0.90),
    }
    # Only CPU-bound wall times follow the host's speed: not the live
    # run, which is paced by its schedule, nor modelled RTTs.
    run_metrics = {name: wall[name] * factor if name in wl.host_bound else wall[name]
                   for name in ("run_s", "lookup_p50_ms", "lookup_p90_ms")}
    if not trace:
        return {
            "attempted": plain.attempted,
            "failed": plain_failed,
            "output_sha256": digest,
            "host_ref_loop_s": host_ref,
            "wall": wall,
            "metrics": {
                "setup_s": statistics.median(t[1] for t in setup_s),
                "cold_setup_s": statistics.median(t[1] for t in cold_s),
                "peak_rss_mb": rss_mb,
                **run_metrics,
            },
        }

    # The traced timed phase, on a fresh set-up.
    with tracer.installed():
        state = wl.setup(warm_dir)
        routers = wl.routers(state)
        rows_before = sum(r.dijkstra_runs for r in routers)
        gc.collect()
        with tracer.phase(layers.RUN):
            traced = wl.run(state)
        rows = sum(r.dijkstra_runs for r in routers) - rows_before
        bad, digest = wl.check(state, traced)
        wl.teardown(state)

    spans = layers.span_metrics(tracer, wl.cold_setups, wl.warm_setups)
    row_calls = spans["routing.row_calls"]
    metrics: Dict[str, float] = dict(spans)
    metrics.update(plain.timings)
    metrics.update(traced.counts)
    metrics.update(wl.derive(spans, traced))
    metrics.update({
        "host.ref_loop_s": host_ref,
        "tracing_overhead_s": traced.busy_s - plain.busy_s,
        "routing.rows": rows,
        "routing.row_hit_ratio": 1.0 - rows / row_calls if row_calls else 0.0,
    })
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain_failed + traced.failed + bad,
        "output_sha256": digest,
        "host_ref_loop_s": host_ref,
        "wall": wall,
        "metrics": metrics,
    }


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def execute(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> Tuple[Dict[str, object], Dict[str, object]]:
    """One run: returns the full record and the result object."""
    from perfbench.util import host_info

    work_dir = os.path.join(ROOT, ".bench_build", "perfbench", f"{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    # Anything that falls back to the default topology cache stays inside
    # this run's directory instead of the user's home.
    os.environ["REPRO_CACHE_DIR"] = work_dir
    wl = make_workload(name, seed, seconds, smoke)
    if smoke:
        wl.cold_setups, wl.warm_setups = 1, 2
    try:
        fields = measure(wl, trace, work_dir)
    finally:
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    measured = fields["metrics"]
    # A workload reads 0 for the layers it never enters (the self-test
    # checks that each per-layer metric is non-zero on some workload).
    metrics = {
        metric: {"value": measured.get(metric, 0.0) if trace else measured[metric],
                 "unit": unit}
        for metric, unit in declared_metrics(trace).items()
    }
    result = {
        "correct": fields["failed"] == 0,
        "attempted": int(fields["attempted"]),
        "failed": int(fields["failed"]),
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        **host_info(),
        "output_sha256": fields["output_sha256"],
        "host_ref_loop_s": fields["host_ref_loop_s"],
        "wall": fields["wall"],
        **result,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="open-loop duration of live-250qps; the offline "
                             "workloads do fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    record, result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
