"""Experiment drivers regenerating every table and figure of the paper.

| Id | Artifact | Driver |
|----|----------|--------|
| E1 | Fig. 4 — response-time CDF, K ∈ {1,3,5}     | :mod:`.fig4_response_time` |
| E2 | Table I — latency stats, K ∈ {1,5}          | :mod:`.table1_stats` |
| E3 | Fig. 5 — BGP-churn impact                   | :mod:`.fig5_churn` |
| E4 | Fig. 6 — Normalized Load Ratio CDF          | :mod:`.fig6_load` |
| E5 | Fig. 7 — analytical bound vs K              | :mod:`.fig7_analytical` |
| E6 | §IV-A — storage/traffic overhead            | :mod:`.storage_overhead` |
| E7 | §III-B — IP-hole rehash probabilities       | :mod:`.rehash_probe` |
| E8 | §II-B/§VI — baseline comparison             | :mod:`.baselines_compare` |

Run one or more: ``python -m repro.experiments <id|name>... [--scale ...]``.
"""

from .baselines_compare import BaselineComparisonResult, run_baseline_comparison
from .common import Environment, SCALES, Scale, get_environment, resolve_scale
from .fig4_response_time import Fig4Result, run_fig4
from .fig5_churn import Fig5Result, run_fig5
from .fig6_load import Fig6Result, run_fig6
from .fig7_analytical import Fig7Result, run_fig7
from .rehash_probe import RehashResult, run_rehash_probe
from .storage_overhead import OverheadResult, run_storage_overhead
from .table1_stats import PAPER_TABLE1, Table1Result, run_table1

__all__ = [
    "BaselineComparisonResult",
    "run_baseline_comparison",
    "Environment",
    "SCALES",
    "Scale",
    "get_environment",
    "resolve_scale",
    "Fig4Result",
    "run_fig4",
    "Fig5Result",
    "run_fig5",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "RehashResult",
    "run_rehash_probe",
    "OverheadResult",
    "run_storage_overhead",
    "PAPER_TABLE1",
    "Table1Result",
    "run_table1",
]
