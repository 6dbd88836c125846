"""Per-rule positive/negative tests over the files in lint_fixtures/.

Each rule has a ``*_bad.py`` fixture that must produce exactly the
expected findings and a ``*_good.py`` fixture that must produce none.
Package-scoped rules get their fixture linted under an in-scope module
path (and re-linted out of scope to prove the scoping works).
"""

from pathlib import Path

import pytest

from repro.tooling.lint import lint_source

FIXTURES = Path(__file__).parent / "lint_fixtures"

# rule id -> (module path to lint under, expected finding count in *_bad.py)
RULE_CASES = {
    "DET001": ("repro.workload.fixture", 2),
    "DET002": ("repro.workload.fixture", 4),
    "DET003": ("repro.sim.fixture", 4),
    "DET004": ("repro.sim.fixture", 4),
    "DET005": ("repro.experiments.fixture", 2),
    "HYG001": ("repro.workload.fixture", 4),
    "HYG002": ("repro.sim.fixture", 2),
    "HYG003": ("repro.bgp.fixture", 1),
    "HYG004": ("repro.analysis.fixture", 1),
    "HYG005": ("repro.core.fixture", 3),
}

#: Rules restricted to package subtrees, with a module that must be exempt.
SCOPED_RULES = {
    "DET004": "repro.experiments.fixture",
    "HYG002": "repro.experiments.fixture",
    "HYG005": "repro.workload.fixture",
}


def _fixture(rule_id: str, kind: str) -> str:
    path = FIXTURES / f"{rule_id.lower()}_{kind}.py"
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("rule_id", sorted(RULE_CASES))
def test_bad_fixture_is_flagged(rule_id):
    module, expected_count = RULE_CASES[rule_id]
    diagnostics = lint_source(_fixture(rule_id, "bad"), module=module)
    flagged = [d for d in diagnostics if d.rule_id == rule_id]
    assert len(flagged) == expected_count, [str(d) for d in diagnostics]
    # Other rules must not be tripping over the same fixture.
    assert flagged == diagnostics


@pytest.mark.parametrize("rule_id", sorted(RULE_CASES))
def test_good_fixture_is_clean(rule_id):
    module, _ = RULE_CASES[rule_id]
    diagnostics = lint_source(_fixture(rule_id, "good"), module=module)
    assert diagnostics == [], [str(d) for d in diagnostics]


@pytest.mark.parametrize("rule_id", sorted(SCOPED_RULES))
def test_scoped_rule_exempts_out_of_scope_modules(rule_id):
    out_of_scope_module = SCOPED_RULES[rule_id]
    diagnostics = lint_source(
        _fixture(rule_id, "bad"), module=out_of_scope_module
    )
    assert [d for d in diagnostics if d.rule_id == rule_id] == []


def test_diagnostics_carry_real_locations():
    diagnostics = lint_source(
        _fixture("DET001", "bad"), path="det001_bad.py", module="repro.x"
    )
    assert all(d.path == "det001_bad.py" for d in diagnostics)
    assert [d.line for d in diagnostics] == [3, 4]
    assert all(d.col >= 1 for d in diagnostics)


def test_det005_accepts_any_explicit_seed_expression():
    source = (
        "import numpy as np\n"
        "def build(seed):\n"
        "    return np.random.default_rng(seed)\n"
    )
    assert lint_source(source, module="repro.experiments.fixture") == []


def test_hyg004_bails_out_on_star_imports():
    source = "from math import *\n__all__ = ['sqrt', 'definitely_missing']\n"
    diagnostics = lint_source(source, module="repro.analysis.fixture")
    assert [d for d in diagnostics if d.rule_id == "HYG004"] == []
