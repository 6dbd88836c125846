"""Rule registry and the :class:`LintRule` base class.

Rules self-register via the :func:`register` decorator at import time
(``repro.tooling.rules`` imports every rule module).  Each rule declares:

* ``rule_id`` — stable identifier used in reports and suppressions
  (``DET0xx`` for determinism, ``HYG0xx`` for API hygiene);
* ``severity`` — default severity for its findings;
* ``packages`` — optional dotted-module prefixes the rule is scoped to
  (empty means "applies everywhere");
* ``check(ctx)`` — yields :class:`~repro.tooling.diagnostics.Diagnostic`
  objects for one parsed file.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple, Type

from .diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import FileContext


class LintRule:
    """Base class for all lint rules; subclass and :func:`register`."""

    rule_id: str = ""
    summary: str = ""
    severity: Severity = Severity.ERROR
    #: Dotted module prefixes this rule applies to; empty = everywhere.
    packages: Tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        """Whether this rule is in scope for the given dotted module."""
        if not self.packages:
            return True
        return any(
            module == pkg or module.startswith(pkg + ".") for pkg in self.packages
        )

    def check(self, ctx: "FileContext") -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, ctx: "FileContext", node: ast.AST, message: str
    ) -> Diagnostic:
        """Build a diagnostic for ``node`` in ``ctx`` with this rule's id."""
        return Diagnostic(
            rule_id=self.rule_id,
            severity=self.severity,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: Dict[str, Type[LintRule]] = {}


def register(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY and _REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def _load_builtin_rules() -> None:
    # Deferred so `import repro.tooling.registry` alone has no side effects;
    # the rules package imports this module back to reach @register.
    from . import rules  # noqa: F401


def all_rules() -> List[LintRule]:
    """Instantiate every registered rule, in rule-id order."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def resolve_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[LintRule]:
    """Resolve a rule set from ``--select`` / ``--ignore`` style filters."""
    rules = all_rules()
    known = {rule.rule_id for rule in rules}
    for requested in list(select or []) + list(ignore or []):
        if requested not in known:
            raise KeyError(f"unknown rule id {requested!r}")
    if select:
        wanted = set(select)
        rules = [rule for rule in rules if rule.rule_id in wanted]
    if ignore:
        dropped = set(ignore)
        rules = [rule for rule in rules if rule.rule_id not in dropped]
    return rules
