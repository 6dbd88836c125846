"""E4 — Figure 6: CDF of the Normalized Load Ratio per AS, K = 5.

NLR(AS) = (% of GUIDs stored at the AS) / (% of announced IP space owned
by it); ideal proportional distribution gives NLR = 1 everywhere.  The
paper inserts 10^5, 10^6 and 10^7 GUIDs and finds (a) 93% of ASs inside
[0.4, 1.6] at 10^7 GUIDs, (b) the CDF sharpening around 1 as the system
grows, and (c) a median slightly above 1 (1.16) because IP-hole spillover
assigns some extra GUIDs to deputy ASs (§IV-B.2c).

Millions of GUID×K placements run through the numpy hash family and the
interval LPM index (:func:`repro.fastpath.placement.resolve_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..bgp.interval_index import HOLE
from ..errors import ConfigurationError
from ..fastpath.placement import resolve_batch
from ..hashing.hashers import FastHasher
from ..hashing.rehash import DEFAULT_MAX_REHASHES, GuidPlacer
from ..sim.metrics import normalized_load_ratios
from .common import Environment, get_environment
from .reporting import format_cdf_table, format_table

#: The GUID population sizes of Fig. 6 (paper scale).
FIG6_N_GUIDS = (100_000, 1_000_000, 10_000_000)


@dataclass
class Fig6Result:
    """NLR samples per GUID population size."""

    scale: str
    k: int
    nlr_by_n: Dict[int, np.ndarray]
    deputy_fraction_by_n: Dict[int, float]

    def render(self) -> str:
        thresholds = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.6, 2.0, 4.0, 8.0)
        series = {f"{n:,} GUIDs": v for n, v in self.nlr_by_n.items()}
        rows = []
        for n, nlr in self.nlr_by_n.items():
            inside = float(((nlr >= 0.4) & (nlr <= 1.6)).mean())
            rows.append(
                [
                    f"{n:,}",
                    f"{np.median(nlr):.2f}",
                    f"{inside:.1%}",
                    f"{self.deputy_fraction_by_n[n]:.4%}",
                ]
            )
        return "\n".join(
            [
                f"Figure 6 — Normalized Load Ratio CDF, K={self.k} ({self.scale} scale)",
                format_cdf_table(series, thresholds, unit="NLR"),
                "",
                format_table(
                    ["GUIDs", "median NLR", "in [0.4,1.6]", "deputy fallback"],
                    rows,
                ),
            ]
        )


def _place_guids_scalar(folded: np.ndarray, placer: GuidPlacer):
    """Per-GUID Algorithm 1 over the same hash family as the batch engines.

    ``FastHasher.hash_one`` and ``hash_batch`` agree element-wise, so the
    placements (and hence the rendered output) are byte-identical to
    ``engine="fastpath"`` — tested in ``tests/test_experiments.py``.  This
    is the reference oracle; it is ~100x slower and meant for small runs.
    """
    n, k = len(folded), placer.k
    asns = np.empty((n, k), dtype=np.int64)
    via_deputy = np.zeros((n, k), dtype=bool)
    for row, value in enumerate(folded.tolist()):
        for i, res in enumerate(placer.resolve_all(int(value))):
            asns[row, i] = res.asn
            via_deputy[row, i] = res.via_deputy
    return asns, via_deputy


def run_fig6(
    scale: Optional[str] = None,
    n_guids_list: Optional[Sequence[int]] = None,
    k: int = 5,
    seed: int = 0,
    max_rehashes: int = DEFAULT_MAX_REHASHES,
    environment: Optional[Environment] = None,
    engine: str = "fastpath",
) -> Fig6Result:
    """Run the Fig. 6 storage-balance experiment.

    At non-paper scales the population sizes shrink proportionally to the
    AS count so the statistical regime (GUIDs-per-AS) matches the paper's.
    ``engine="fastpath"`` routes placement through the shared
    :func:`repro.fastpath.placement.resolve_batch` kernel (folding a
    uint64 is a no-op); ``engine="scalar"`` is the per-GUID
    :class:`GuidPlacer` oracle — slow, but its output is byte-identical.
    """
    env = environment or get_environment(scale, seed)
    if engine not in ("scalar", "fastpath"):
        raise ConfigurationError(f"unknown engine {engine!r}")
    if n_guids_list is None:
        factor = env.scale.n_as / 26_424
        n_guids_list = [max(1000, int(n * factor)) for n in FIG6_N_GUIDS]

    index = env.table.build_interval_index()
    spans = index.effective_span_by_asn()
    hasher = FastHasher(k, address_bits=env.table.bits, seed=seed)
    rng = np.random.default_rng(seed)

    nlr_by_n: Dict[int, np.ndarray] = {}
    deputy_by_n: Dict[int, float] = {}
    placer = GuidPlacer(hasher, env.table, max_rehashes=max_rehashes)
    for n in n_guids_list:
        folded = rng.integers(0, np.iinfo(np.uint64).max, size=n, dtype=np.uint64)
        if engine == "fastpath":
            asns, _attempts, via_deputy = resolve_batch(placer, folded, index)
        else:
            asns, via_deputy = _place_guids_scalar(folded, placer)
        flat = asns.ravel()
        unique, counts = np.unique(flat, return_counts=True)
        guid_counts = {int(a): int(c) for a, c in zip(unique, counts) if a != HOLE}
        nlr_by_n[n] = normalized_load_ratios(guid_counts, spans)
        deputy_by_n[n] = float(via_deputy.mean())
    return Fig6Result(env.scale.name, k, nlr_by_n, deputy_by_n)


def main(scale: Optional[str] = None, engine: str = "fastpath") -> Fig6Result:
    """CLI entry point: run and print."""
    result = run_fig6(scale, engine=engine)
    print(result.render())
    return result


if __name__ == "__main__":
    main()
