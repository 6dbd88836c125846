"""E5 — Figure 7: analytical response-time upper bound vs K.

Evaluates the §V Jellyfish bound for K = 1..20 over the three Internet
scenarios (present day, medium-term future, long-term future).  Expected
shape: every curve decreases in K with clearly diminishing returns past a
few replicas, and flatter (future) topologies sit uniformly lower —
"response time upper bounds for DMap queries become smaller with the
evolution" (§V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..analysis.jellyfish_model import AnalyticalModel, PAPER_C0, PAPER_C1
from ..analysis.scenarios import all_scenarios
from .reporting import format_table

#: Replica counts swept in Fig. 7.
FIG7_K_RANGE = tuple(range(1, 21))


@dataclass
class Fig7Result:
    """Bound curves per scenario."""

    k_values: Tuple[int, ...]
    bounds_by_scenario: Dict[str, np.ndarray]
    c0: float
    c1: float

    def render(self) -> str:
        headers = ["K"] + list(self.bounds_by_scenario)
        rows = []
        for i, k in enumerate(self.k_values):
            rows.append(
                [k] + [f"{curve[i]:.1f}" for curve in self.bounds_by_scenario.values()]
            )
        return "\n".join(
            [
                "Figure 7 — analytical RTT upper bound [ms] "
                f"(c0={self.c0}, c1={self.c1})",
                format_table(headers, rows),
            ]
        )

    def diminishing_returns_ratio(self, scenario: str) -> float:
        """Improvement from the last 10 replicas relative to the first few
        — small values confirm "diminishing returns beyond a few
        replicas" (§V-C)."""
        curve = self.bounds_by_scenario[scenario]
        early_gain = curve[0] - curve[4]  # K=1 → K=5
        late_gain = curve[9] - curve[-1]  # K=10 → K=20
        if early_gain <= 0:
            return 0.0
        return float(late_gain / early_gain)


def run_fig7(
    k_values: Sequence[int] = FIG7_K_RANGE,
    scenarios: Optional[Sequence[AnalyticalModel]] = None,
    c0: float = PAPER_C0,
    c1: float = PAPER_C1,
) -> Fig7Result:
    """Evaluate the Fig. 7 curves (pure closed-form, no simulation)."""
    models = list(scenarios) if scenarios is not None else all_scenarios()
    bounds = {}
    for model in models:
        fitted = AnalyticalModel(model.name, model.ratios, c0, c1)
        bounds[model.name] = fitted.sweep(k_values)
    return Fig7Result(tuple(k_values), bounds, c0, c1)


def main(scale: Optional[str] = None) -> Fig7Result:
    """CLI entry point (scale is ignored: the model is topology-free)."""
    result = run_fig7()
    print(result.render())
    return result


if __name__ == "__main__":
    main()
