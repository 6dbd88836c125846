"""API-hygiene rules (``HYG0xx``).

Correctness hazards that reviewers reliably miss: defaults shared
between calls, float equality in metric code, exception handlers that
swallow ``KeyboardInterrupt``, ``__all__`` lists that drift from the
module body, and public simulation APIs without return annotations.

Each rule is a function from a parsed module to ``(node, message)``
findings; :data:`repro.tooling.rules.RULES` lists them with their scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ._helpers import is_float_constant, iter_statements_outside_functions

#: Constructors whose call as a default argument shares state (the value
#: is built once at def time, then mutated across calls).
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "deque",
    }
)


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


def mutable_default(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """HYG001: mutable default arguments are evaluated once and shared."""
    for func in ast.walk(tree):
        if not isinstance(
            func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        args = func.args
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield default, (
                    "mutable default argument is created once at `def` "
                    "time and shared across calls; default to None and "
                    "build inside the function"
                )


def float_equality(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """HYG002: float literal ``==``/``!=`` in metric/simulation code.

    Latencies and rates accumulate rounding error; exact comparison
    against a float literal is almost always a logic bug.  Scoped to
    ``repro.sim`` and ``repro.analysis`` where such comparisons decide
    measured results.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left] + list(node.comparators)
        if any(is_float_constant(operand) for operand in operands):
            yield node, (
                "equality against a float literal: accumulated rounding "
                "makes this unstable; use math.isclose or an explicit "
                "tolerance"
            )


def bare_except(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """HYG003: bare ``except:`` catches SystemExit/KeyboardInterrupt."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield node, (
                "bare `except:` swallows SystemExit and "
                "KeyboardInterrupt; catch `Exception` or something "
                "narrower"
            )


def _collect_namespace(tree: ast.Module) -> Tuple[Set[str], bool]:
    """(bound names, saw star import) for the module's top level."""
    names: Set[str] = set()
    star_import = False

    def add_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                add_target(element)
        elif isinstance(target, ast.Starred):
            add_target(target.value)

    for node in iter_statements_outside_functions(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                add_target(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            add_target(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            add_target(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    add_target(item.optional_vars)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    star_import = True
                else:
                    names.add(alias.asname or alias.name)
    return names, star_import


def phantom_export(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """HYG004: every ``__all__`` entry must exist in the module."""
    namespace, star_import = _collect_namespace(tree)
    if star_import:
        # A star import makes the namespace unknowable statically.
        return
    for node in iter_statements_outside_functions(tree):
        value = None
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                value = node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == "__all__":
                value = node.value
        if value is None or not isinstance(value, (ast.List, ast.Tuple)):
            continue
        for element in value.elts:
            if (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
                and element.value not in namespace
            ):
                yield element, (
                    f"__all__ exports {element.value!r} but the module "
                    "neither defines nor imports it"
                )


def _is_public(name: str) -> bool:
    return name == "__init__" or not name.startswith("_")


def _iter_public_defs(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    containers: List[ast.AST] = [tree]
    while containers:
        container = containers.pop(0)
        for node in container.body:  # type: ignore[attr-defined]
            if isinstance(node, ast.ClassDef):
                containers.append(node)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and _is_public(node.name):
                yield node


def missing_return_annotation(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """HYG005: public functions in ``core``/``sim`` must annotate returns.

    These packages are the API surface every experiment builds on; an
    unannotated return type there hides interface drift that the
    analysis code then mis-consumes.  ``__init__`` counts as public (it
    is the constructor signature callers see); other underscore-prefixed
    names are exempt.
    """
    for func in _iter_public_defs(tree):
        if func.returns is None:
            yield func, (
                f"public function `{func.name}` has no return "
                "annotation; core/sim APIs must declare their types"
            )
