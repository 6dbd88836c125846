"""E7 — IP-hole rehash behaviour (§III-B).

The paper's claim: with a 55% announcement ratio the probability that all
M = 10 hashes land in IP holes is 0.45^10 ≈ 0.034%, so the deputy-AS
fallback is rare and cannot skew storage load much.  This experiment
measures the empirical attempt distribution over random GUIDs and checks
it against the analytic geometric model at every M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..fastpath.placement import resolve_batch
from ..hashing.hashers import FastHasher
from ..hashing.rehash import GuidPlacer, hole_probability
from .common import Environment, get_environment
from .reporting import format_table


@dataclass
class RehashResult:
    """Empirical vs analytic hole-exhaustion probabilities."""

    scale: str
    announcement_ratio: float
    n_samples: int
    deputy_fraction_by_m: Dict[int, float]
    analytic_by_m: Dict[int, float]
    mean_attempts: float

    def render(self) -> str:
        rows = []
        for m in sorted(self.deputy_fraction_by_m):
            rows.append(
                [
                    m,
                    f"{self.deputy_fraction_by_m[m]:.5%}",
                    f"{self.analytic_by_m[m]:.5%}",
                ]
            )
        return "\n".join(
            [
                "§III-B — IP-hole rehash probabilities "
                f"(announcement ratio {self.announcement_ratio:.1%}, "
                f"mean attempts {self.mean_attempts:.3f})",
                format_table(["M", "measured deputy fraction", "analytic (1-r)^M"], rows),
            ]
        )


def run_rehash_probe(
    scale: Optional[str] = None,
    m_values: Sequence[int] = (1, 2, 4, 6, 8, 10),
    n_samples: int = 200_000,
    seed: int = 0,
    environment: Optional[Environment] = None,
) -> RehashResult:
    """Sweep the M (max rehash) parameter and measure deputy fallbacks."""
    env = environment or get_environment(scale, seed)
    index = env.table.build_interval_index()
    ratio = index.announced_fraction()
    hasher = FastHasher(1, address_bits=env.table.bits, seed=seed)
    rng = np.random.default_rng(seed)
    folded = rng.integers(0, np.iinfo(np.uint64).max, size=n_samples, dtype=np.uint64)

    deputy_by_m: Dict[int, float] = {}
    analytic_by_m: Dict[int, float] = {}
    mean_attempts = 0.0
    for m in m_values:
        _asns, attempts, via_deputy = resolve_batch(
            GuidPlacer(hasher, env.table, m), folded, index
        )
        deputy_by_m[m] = float(via_deputy.mean())
        analytic_by_m[m] = hole_probability(ratio, m)
        if m == max(m_values):
            mean_attempts = float(attempts.mean())
    return RehashResult(
        env.scale.name, ratio, n_samples, deputy_by_m, analytic_by_m, mean_attempts
    )


def main(scale: Optional[str] = None) -> RehashResult:
    """CLI entry point: run and print."""
    result = run_rehash_probe(scale)
    print(result.render())
    return result


if __name__ == "__main__":
    main()
