"""The lint engine: file discovery, parsing, rule dispatch, suppression.

The engine is deliberately simple: one ``ast.parse`` per file, one
:class:`FileContext` handed to every in-scope rule, suppressions applied
at the end.  There is no caching or parallelism — linting this entire
repo takes well under a second, and determinism of the report itself
matters more than speed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic, LintReport, Severity
from .registry import LintRule, all_rules
from .suppress import SuppressionIndex

#: Directory names never descended into during file discovery.
EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".pytest_cache", "build", "dist"}
)

#: Top-level package name used to derive dotted module paths from files.
ROOT_PACKAGE = "repro"


@dataclass
class FileContext:
    """Everything a rule needs to know about one parsed source file."""

    path: str
    module: str
    tree: ast.Module
    source: str
    lines: List[str] = field(default_factory=list)

    @classmethod
    def from_source(
        cls, source: str, path: str = "<string>", module: Optional[str] = None
    ) -> "FileContext":
        tree = ast.parse(source, filename=path)
        if module is None:
            module = derive_module(Path(path))
        return cls(
            path=path,
            module=module,
            tree=tree,
            source=source,
            lines=source.splitlines(),
        )


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


def _run_rules(
    ctx: FileContext, rules: Sequence[LintRule]
) -> Tuple[List[Diagnostic], int]:
    """Run every in-scope rule, returning (kept, suppressed_count)."""
    collected: List[Diagnostic] = []
    for rule in rules:
        if not rule.applies_to(ctx.module):
            continue
        collected.extend(rule.check(ctx))
    index = SuppressionIndex.from_source(ctx.source)
    kept = index.apply(collected)
    return kept, len(collected) - len(kept)


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Diagnostic]:
    """Lint a source string; the unit-test entry point.

    ``module`` overrides the dotted module path used for package-scoped
    rules, so fixtures can pretend to live anywhere in the tree.
    """
    ctx = FileContext.from_source(source, path=path, module=module)
    kept, _ = _run_rules(ctx, rules if rules is not None else all_rules())
    return sorted(kept, key=Diagnostic.sort_key)


def lint_paths(
    paths: Sequence[str], rules: Optional[Sequence[LintRule]] = None
) -> LintReport:
    """Lint files/directories into a :class:`LintReport`.

    Unparseable files are reported as a synthetic ``SYNTAX`` error
    diagnostic rather than aborting the run, so one broken file cannot
    mask findings elsewhere.
    """
    active = list(rules) if rules is not None else all_rules()
    report = LintReport()
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        report.files_checked += 1
        try:
            ctx = FileContext.from_source(source, path=str(file_path))
        except SyntaxError as exc:
            report.diagnostics.append(
                Diagnostic(
                    rule_id="SYNTAX",
                    severity=Severity.ERROR,
                    path=str(file_path),
                    line=exc.lineno or 1,
                    col=exc.offset or 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        kept, suppressed = _run_rules(ctx, active)
        report.extend(kept)
        report.suppressed_count += suppressed
    return report.finalize()
