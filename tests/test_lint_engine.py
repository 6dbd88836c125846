"""Loop-level tests: module derivation, discovery, the rule table, the
SYNTAX finding, and the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.tooling.lint import (
    derive_module,
    iter_python_files,
    lint_paths,
)
from repro.tooling.rules import RULES

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent


# -- module derivation and scoping ------------------------------------


@pytest.mark.parametrize(
    "path,expected",
    [
        ("src/repro/sim/engine.py", "repro.sim.engine"),
        ("src/repro/core/__init__.py", "repro.core"),
        ("src/repro/__init__.py", "repro"),
        ("tests/lint_fixtures/det001_bad.py", "det001_bad"),
    ],
)
def test_derive_module(path, expected):
    assert derive_module(Path(path)) == expected


def test_scoped_rules_skip_fixture_files_on_disk():
    # det004_bad.py lives outside any repro package dir, so the scoped
    # DET004 rule must not fire when linting it by path.
    _, findings = lint_paths([str(FIXTURES / "det004_bad.py")])
    assert [f for f in findings if f.rule_id == "DET004"] == []


# -- discovery --------------------------------------------------------


def test_iter_python_files_skips_caches_and_sorts(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    cache = tmp_path / "pkg" / "__pycache__"
    cache.mkdir()
    (cache / "a.cpython-311.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "note.txt").write_text("not python\n")
    names = [p.name for p in iter_python_files([str(tmp_path)])]
    assert names == ["a.py", "b.py"]


def test_lint_paths_missing_target_raises():
    with pytest.raises(FileNotFoundError):
        lint_paths(["no/such/dir"])


def test_unparseable_file_becomes_syntax_diagnostic(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n")
    files, findings = lint_paths([str(tmp_path)])
    assert files == 1
    assert [f.rule_id for f in findings] == ["SYNTAX"]
    assert findings[0].path == str(target)
    assert findings[0].line == 1


def test_syntax_finding_does_not_hide_findings_elsewhere(tmp_path):
    (tmp_path / "a_broken.py").write_text("def broken(:\n")
    (tmp_path / "b_bad.py").write_text("def f():\n    import random\n")
    files, findings = lint_paths([str(tmp_path)])
    assert files == 2
    assert [(Path(f.path).name, f.rule_id, f.line, f.col) for f in findings] == [
        ("a_broken.py", "SYNTAX", 1, 12),
        ("b_bad.py", "DET001", 2, 5),
    ]


# -- the rule table ---------------------------------------------------


def test_rule_table_ids_unique_sorted_with_fixtures():
    ids = [rule_id for rule_id, _, _ in RULES]
    assert ids == sorted(set(ids))
    assert ids == [
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "DET005",
        "HYG001",
        "HYG002",
        "HYG003",
        "HYG004",
        "HYG005",
    ]
    for rule_id in ids:
        for kind in ("bad", "good"):
            assert (FIXTURES / f"{rule_id.lower()}_{kind}.py").is_file()


def test_rule_scopes():
    # A scope is the one way to exempt code from a rule, so a change to
    # one must show here as well as in the table.
    sim_critical = (
        "repro.sim",
        "repro.core",
        "repro.bgp",
        "repro.fastpath",
        "repro.hashing",
        "repro.topology",
        "repro.workload",
        "repro.validation",
        "repro.obs",
        "repro.net.protocol",
        "repro.net.client",
    )
    assert {rule_id: packages for rule_id, packages, _ in RULES if packages} == {
        "DET004": sim_critical,
        "HYG002": ("repro.sim", "repro.analysis"),
        "HYG005": ("repro.core", "repro.sim"),
    }


# -- CLI --------------------------------------------------------------


def _run_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.tooling.lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_cli_flags_violations_with_locations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    result = _run_cli(str(bad))
    assert result.returncode == 1
    assert f"{bad}:1:1: DET001 import of stdlib `random`" in result.stdout
    assert "FAILED — 1 files, 1 errors" in result.stdout


def test_cli_clean_tree_exits_zero(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    result = _run_cli(str(good))
    assert result.returncode == 0
    assert "ok — 1 files, 0 errors" in result.stdout


def test_cli_missing_path_exits_two_and_names_it(tmp_path):
    missing = tmp_path / "no_such_dir"
    result = _run_cli(str(missing))
    assert result.returncode == 2
    assert str(missing) in result.stderr
    assert result.stdout == ""
