"""Static-analysis tooling for the DMap reproduction.

The simulation results this repo reproduces (Fig. 4-7, Table 1) are only
trustworthy when runs are bit-for-bit reproducible under a fixed seed.
``repro.tooling`` is a self-contained, stdlib-``ast``-based lint engine
that machine-checks the invariants that keep them that way:

* **determinism** -- no process-global RNGs, no wall-clock reads, no
  hash-order-dependent iteration feeding event queues;
* **API hygiene** -- no mutable default arguments, no float ``==``, no
  bare ``except``, honest ``__all__`` exports, annotated public APIs.

Run it with ``python -m repro.tooling.lint src/repro``.  The engine has
no third-party dependencies, so it works in offline environments where
ruff/mypy are unavailable.
"""

from .diagnostics import Diagnostic, LintReport, Severity
from .engine import iter_python_files, lint_paths, lint_source
from .registry import LintRule, all_rules, register, resolve_rules

__all__ = [
    "Diagnostic",
    "LintReport",
    "Severity",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "LintRule",
    "all_rules",
    "register",
    "resolve_rules",
]
