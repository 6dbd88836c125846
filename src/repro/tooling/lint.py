"""The lint loop and its CLI.

Usage::

    python -m repro.tooling.lint src/repro examples

Every file is parsed once and every rule of
:data:`repro.tooling.rules.RULES` whose package scope covers the file's
module runs over the tree.  A file that does not parse is a ``SYNTAX``
finding, so one broken file cannot hide findings elsewhere.  Findings
print as ``path:line:col: RULE message``, sorted by location.

Exit codes: 0 clean, 1 findings, 2 a path that does not exist.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .rules import RULES

#: Directory names never descended into during file discovery.
EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".pytest_cache", "build", "dist"}
)

#: Top-level package name used to derive dotted module paths from files.
ROOT_PACKAGE = "repro"


class Finding(NamedTuple):
    """One lint finding, pinned to a file/line/column."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        """``path:line:col: RULE message`` — editor-clickable."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


def _location(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule_id)


def derive_module(path: Path) -> str:
    """Best-effort dotted module path for a file.

    Files under a ``repro`` directory map to their real import path
    (``src/repro/sim/engine.py`` -> ``repro.sim.engine``); anything else
    falls back to its bare stem, which keeps package-scoped rules from
    firing on out-of-tree files such as test fixtures.
    """
    parts = list(path.parts)
    stem_parts = parts[:-1] + [path.stem]
    if ROOT_PACKAGE in stem_parts:
        idx = len(stem_parts) - 1 - stem_parts[::-1].index(ROOT_PACKAGE)
        module_parts = stem_parts[idx:]
        if module_parts[-1] == "__init__":
            module_parts = module_parts[:-1]
        return ".".join(module_parts)
    return path.stem


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    found: Dict[str, Path] = {}
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if root.suffix == ".py":
                found[str(root)] = root
            continue
        if not root.is_dir():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in sorted(root.rglob("*.py")):
            if any(part in EXCLUDED_DIRS for part in candidate.parts):
                continue
            found[str(candidate)] = candidate
    return [found[key] for key in sorted(found)]


def lint_source(
    source: str, path: str = "<string>", module: Optional[str] = None
) -> List[Finding]:
    """Lint a source string; the unit-test entry point.

    ``module`` overrides the dotted module path used for package-scoped
    rules, so fixtures can pretend to live anywhere in the tree.
    """
    tree = ast.parse(source, filename=path)
    if module is None:
        module = derive_module(Path(path))
    findings = []
    for rule_id, packages, check in RULES:
        if packages and not any(
            module == pkg or module.startswith(pkg + ".") for pkg in packages
        ):
            continue
        for node, message in check(tree):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0) + 1
            findings.append(Finding(rule_id, path, line, col, message))
    return sorted(findings, key=_location)


def lint_paths(paths: Sequence[str]) -> Tuple[int, List[Finding]]:
    """Lint files/directories: ``(files checked, sorted findings)``."""
    files = iter_python_files(paths)
    findings: List[Finding] = []
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        try:
            findings.extend(lint_source(source, path=str(file_path)))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    "SYNTAX",
                    str(file_path),
                    exc.lineno or 1,
                    exc.offset or 1,
                    f"file does not parse: {exc.msg}",
                )
            )
    return len(files), sorted(findings, key=_location)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tooling.lint",
        description=(
            "AST-based determinism and API-hygiene linter for the DMap "
            "reproduction (stdlib-only; see repro.tooling)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    options = parser.parse_args(argv)
    try:
        files, findings = lint_paths(options.paths)
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding)
    status = "FAILED" if findings else "ok"
    print(f"repro-lint: {status} — {files} files, {len(findings)} errors")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
