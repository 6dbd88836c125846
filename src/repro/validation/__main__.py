"""CLI for the differential cross-validation harness.

Usage::

    python -m repro.validation --scenarios 50 --seed 0 [--json]

Exit status 0 when every scenario replays identically through the
analytic resolver and the discrete-event simulation (and, on scenarios
without BGP churn, the batched fastpath); 1 otherwise, with reproducer
seeds printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .differ import diff_scenario
from .report import ValidationReport
from .scenarios import generate_scenario


def build_report(
    scenarios: int, seed: int, verbose: bool = False, fastpath: bool = True
) -> ValidationReport:
    """Diff ``scenarios`` consecutive seeds starting at ``seed``."""
    report = ValidationReport()
    for offset in range(scenarios):
        diff = diff_scenario(generate_scenario(seed + offset), fastpath=fastpath)
        report.add_scenario(
            diff.config_line,
            diff.lookups,
            diff.writes,
            diff.mismatches,
            fastpath_lookups=diff.fastpath_lookups,
        )
        if verbose:
            status = "ok" if diff.clean else f"{len(diff.mismatches)} mismatches"
            print(f"  seed {diff.seed}: {status}", file=sys.stderr)
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation",
        description="Differential cross-validation of the DMap execution paths.",
    )
    parser.add_argument(
        "--scenarios", type=int, default=25, help="number of scenarios to replay"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="first scenario seed (consecutive)"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the JSON report on stdout"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="per-scenario progress on stderr"
    )
    parser.add_argument(
        "--skip-fastpath",
        action="store_true",
        help="disable the fastpath-vs-resolver differential lane",
    )
    args = parser.parse_args(argv)
    if args.scenarios <= 0:
        parser.error("--scenarios must be positive")
    report = build_report(
        args.scenarios,
        args.seed,
        verbose=args.verbose,
        fastpath=not args.skip_fastpath,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
