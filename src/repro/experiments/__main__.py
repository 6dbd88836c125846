"""Command-line driver: ``python -m repro.experiments <experiment>... [opts]``.

Each named experiment prints ``=== name ===``, its report and a blank
line, so every file under ``results/`` is one command's stdout.

Examples::

    python -m repro.experiments fig4
    python -m repro.experiments fig6 rehash --scale paper
    python -m repro.experiments all --scale medium --engine fastpath
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from . import (
    baselines_compare,
    fig4_response_time,
    fig5_churn,
    fig6_load,
    fig7_analytical,
    rehash_probe,
    storage_overhead,
    table1_stats,
)

EXPERIMENTS: Dict[str, Callable[..., object]] = {
    "fig4": fig4_response_time.main,
    "table1": table1_stats.main,
    "fig5": fig5_churn.main,
    "fig6": fig6_load.main,
    "fig7": fig7_analytical.main,
    "overhead": storage_overhead.main,
    "rehash": rehash_probe.main,
    "baselines": baselines_compare.main,
}

#: ``e1`` … ``e8``, the experiment ids of DESIGN.md, in registry order.
ALIASES = {f"e{i}": name for i, name in enumerate(EXPERIMENTS, start=1)}

#: The options an experiment takes beyond ``--scale``: CLI option to the
#: runner's keyword.
OPTIONS: Dict[str, Dict[str, str]] = {
    "fig4": {"engine": "engine", "jobs": "n_jobs", "trace": "trace_path"},
    "fig6": {"engine": "engine"},
}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="+",
        help="one or more of: %s, or 'all' (every one, in that order)"
        % ", ".join(EXPERIMENTS),
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=["small", "medium", "paper"],
        help="substrate/workload scale (default: REPRO_SCALE env var or small)",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=["scalar", "fastpath"],
        help="execution engine for fig4/fig6 (fig4: scalar|fastpath, "
        "default scalar; fig6: scalar|fastpath, default fastpath)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="processes that share the fastpath's GUID placement and "
        "Dijkstra rows (fig4 only; default 0 = every usable CPU; output is "
        "the same for any count)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write per-query JSONL traces (plus a run manifest) there "
        "(fig4 alone); summarize later with "
        "'python -m repro.obs summarize-traces PATH'",
    )
    args = parser.parse_args(argv)

    names = []
    for requested in args.experiment:
        name = ALIASES.get(requested, requested)
        if name == "all":
            names.extend(EXPERIMENTS)
        elif name in EXPERIMENTS:
            names.append(name)
        else:
            parser.error(f"unknown experiment {requested!r}")
    if args.trace is not None and names != ["fig4"]:
        parser.error("--trace is only supported by fig4 alone")
    for opt in ("engine", "jobs"):
        taken = any(opt in OPTIONS.get(name, {}) for name in names)
        if getattr(args, opt) is not None and not taken:
            parser.error(f"--{opt} is not supported by {' '.join(names)}")
    for name in names:
        kwargs = {
            keyword: getattr(args, opt)
            for opt, keyword in OPTIONS.get(name, {}).items()
            if getattr(args, opt) is not None
        }
        print(f"=== {name} ===")
        EXPERIMENTS[name](args.scale, **kwargs)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
