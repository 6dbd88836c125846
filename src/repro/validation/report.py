"""Structured mismatch bundles and human/JSON reporting.

Every discrepancy the differ finds becomes a :class:`Mismatch` carrying
the scenario seed, a stable ``kind`` tag, and the two observed values.
The aggregate :class:`ValidationReport` groups them by kind, lists the
reproducer seeds, and renders both a terminal summary and a JSON dict
(for CI artifacts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Mismatch kind tags (stable identifiers; tests and CI grep for these).
KIND_LOOKUP_LOST = "lookup.lost"
KIND_LOOKUP_SUCCESS = "lookup.success"
KIND_LOOKUP_SERVED_BY = "lookup.served_by"
KIND_LOOKUP_USED_LOCAL = "lookup.used_local"
KIND_LOOKUP_ATTEMPTS = "lookup.attempts"
KIND_LOOKUP_RTT = "lookup.rtt"
KIND_WRITE_RTT = "write.rtt"
KIND_STORAGE = "storage"
KIND_TABLE = "table"
#: Fastpath-lane kinds: the batched engine diffed against the analytic
#: resolver (its oracle) on the same scenario.
KIND_FASTPATH_SUCCESS = "fastpath.success"
KIND_FASTPATH_SERVED_BY = "fastpath.served_by"
KIND_FASTPATH_USED_LOCAL = "fastpath.used_local"
KIND_FASTPATH_ATTEMPTS = "fastpath.attempts"
KIND_FASTPATH_RTT = "fastpath.rtt"
KIND_FASTPATH_WRITE_RTT = "fastpath.write_rtt"


@dataclass(frozen=True)
class Mismatch:
    """One observed divergence between the two execution paths.

    Attributes
    ----------
    seed:
        Scenario seed that reproduces the divergence
        (``python -m repro.validation --scenarios 1 --seed <seed>``).
    kind:
        Stable tag from the ``KIND_*`` constants above.
    subject:
        What diverged — a GUID/querier pair, an AS, an address.
    analytic / simulated:
        The two observed values, rendered as strings.
    detail:
        Free-form context (attempt sequences, storage diffs, ...).
    """

    seed: int
    kind: str
    subject: str
    analytic: str
    simulated: str
    detail: str = ""

    def render(self) -> str:
        """One-line human rendering."""
        line = (
            f"[seed {self.seed}] {self.kind} {self.subject}: "
            f"analytic={self.analytic} simulated={self.simulated}"
        )
        if self.detail:
            line += f" ({self.detail})"
        return line


@dataclass
class ValidationReport:
    """Aggregate over all diffed scenarios."""

    scenarios: int = 0
    lookups: int = 0
    writes: int = 0
    fastpath_lookups: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)
    configs: List[str] = field(default_factory=list)

    def add_scenario(
        self,
        config_line: str,
        lookups: int,
        writes: int,
        mismatches: Tuple[Mismatch, ...],
        fastpath_lookups: int = 0,
    ) -> None:
        """Fold one scenario's diff into the aggregate."""
        self.scenarios += 1
        self.lookups += lookups
        self.writes += writes
        self.fastpath_lookups += fastpath_lookups
        self.mismatches.extend(mismatches)
        if mismatches:
            self.configs.append(config_line)

    @property
    def clean(self) -> bool:
        """Whether every scenario replayed identically on both paths."""
        return not self.mismatches

    def by_kind(self) -> Dict[str, List[Mismatch]]:
        """Mismatches grouped by kind, insertion order preserved."""
        grouped: Dict[str, List[Mismatch]] = {}
        for mismatch in self.mismatches:
            grouped.setdefault(mismatch.kind, []).append(mismatch)
        return grouped

    def reproducer_seeds(self) -> List[int]:
        """Sorted seeds of every scenario with at least one mismatch."""
        return sorted({m.seed for m in self.mismatches})

    def render(self, max_lines: int = 40) -> str:
        """Terminal summary: headline, per-kind counts, sample lines."""
        seeds = self.reproducer_seeds()
        lines = [
            f"repro.validation: {self.scenarios} scenarios, "
            f"{self.lookups} lookups, {self.writes} writes, "
            f"{self.fastpath_lookups} fastpath lookups — "
            + (
                "all paths agree"
                if self.clean
                else f"{len(self.mismatches)} mismatches in "
                f"{len(seeds)} scenario(s)"
            )
        ]
        if self.clean:
            return "\n".join(lines)
        for kind, group in sorted(self.by_kind().items()):
            kind_seeds = sorted({m.seed for m in group})
            shown = ", ".join(str(s) for s in kind_seeds[:8])
            if len(kind_seeds) > 8:
                shown += ", ..."
            lines.append(f"  {kind:<20} {len(group):>4}  (seeds: {shown})")
        lines.append(
            "Reproduce: python -m repro.validation --scenarios 1 --seed "
            + str(seeds[0])
        )
        for config_line in self.configs[:5]:
            lines.append(f"  config: {config_line}")
        for mismatch in self.mismatches[:max_lines]:
            lines.append("  " + mismatch.render())
        if len(self.mismatches) > max_lines:
            lines.append(f"  ... {len(self.mismatches) - max_lines} more")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form (CI artifact)."""
        return {
            "scenarios": self.scenarios,
            "lookups": self.lookups,
            "writes": self.writes,
            "fastpath_lookups": self.fastpath_lookups,
            "clean": self.clean,
            "reproducer_seeds": self.reproducer_seeds(),
            "mismatches": [
                {
                    "seed": m.seed,
                    "kind": m.kind,
                    "subject": m.subject,
                    "analytic": m.analytic,
                    "simulated": m.simulated,
                    "detail": m.detail,
                }
                for m in self.mismatches
            ],
        }
