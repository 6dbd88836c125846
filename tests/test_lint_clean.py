"""Tier-1 gate: ``src/repro`` and ``examples`` must stay lint-clean.

This is the machine-checked version of the repo's determinism
conventions (see DESIGN.md "Determinism conventions"): any PR that
reintroduces an unseeded RNG, a wall-clock read, hash-order iteration
in sim-critical packages, or the hygiene defects in HYG0xx fails here
with file:line findings.  The examples are the user-facing seeded
runs, so they are held to the same rules.
"""

from pathlib import Path

from repro.tooling.lint import lint_paths

REPO_ROOT = Path(__file__).parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
EXAMPLES = REPO_ROOT / "examples"


def test_src_repro_is_lint_clean():
    assert SRC_REPRO.is_dir(), SRC_REPRO
    assert EXAMPLES.is_dir(), EXAMPLES
    files, findings = lint_paths([str(SRC_REPRO), str(EXAMPLES)])
    # the whole package and every example, not a subset
    assert files > 50
    assert files - len(list(SRC_REPRO.rglob("*.py"))) == len(
        list(EXAMPLES.glob("*.py"))
    )
    formatted = "\n".join(str(f) for f in findings)
    assert findings == [], f"repro-lint findings:\n{formatted}"
