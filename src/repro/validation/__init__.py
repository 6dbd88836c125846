"""Differential cross-validation of the DMap execution paths.

DESIGN.md §4 promises that :class:`~repro.core.resolver.DMapResolver`
(instant accounting) and :mod:`repro.sim` (true discrete-event replay)
execute the *identical* protocol.  This package makes that promise
checkable: it generates seeded randomized scenarios, replays the same
insert/update/churn/lookup trace through both engines (and, without
churn, through the batched :mod:`repro.fastpath`), and reports
structured mismatch bundles with minimal reproducer seeds.  The live
lane (:mod:`.live`) compares the loopback cluster with the resolver.

Run it as ``python -m repro.validation --scenarios 50 --seed 0``; the
tier-1 suite runs a small smoke set, CI a larger one on every push.
"""

from .differ import ScenarioDiff, diff_scenario
from .live import LiveComparison, run_live_check
from .report import Mismatch, ValidationReport
from .scenarios import Scenario, ScenarioAvailability, ScenarioConfig, generate_scenario

__all__ = [
    "LiveComparison",
    "Mismatch",
    "Scenario",
    "ScenarioAvailability",
    "ScenarioConfig",
    "ScenarioDiff",
    "ValidationReport",
    "diff_scenario",
    "generate_scenario",
    "run_live_check",
]
