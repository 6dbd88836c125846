"""Determinism rules (``DET0xx``).

The simulation's headline results are only meaningful if a fixed seed
reproduces them bit-for-bit.  These rules enforce the repo's RNG
convention — randomness flows in as a ``numpy.random.Generator``
parameter or a ``default_rng(seed)`` built from an explicit seed — and
ban the ambient entropy sources that silently break replays: the
process-global ``random`` module, legacy ``np.random.*`` globals,
wall-clock reads, and set-order iteration feeding event schedules.

Each rule is a function from a parsed module to ``(node, message)``
findings; :data:`repro.tooling.rules.RULES` lists them with their scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ._helpers import collect_import_aliases, iter_calls

#: Packages whose event ordering feeds the discrete-event simulation.
SIM_CRITICAL_PACKAGES: Tuple[str, ...] = (
    "repro.sim",
    "repro.core",
    "repro.bgp",
    "repro.fastpath",
    "repro.hashing",
    "repro.topology",
    "repro.workload",
    "repro.validation",
    "repro.obs",
    # repro.net: only the pure modules are sim-critical.  The codec and
    # the client's walk order and timeout arithmetic must replay
    # bit-for-bit (wire tests and the live validation lane assert it),
    # so they get the full determinism rule set.  The event-loop modules (node,
    # cluster, loadgen, __main__) are deliberately excluded: their job
    # is real wall-clock I/O — loop.time() reads, timer scheduling,
    # socket readiness — which is inherently order-nondeterministic and
    # is reconciled statistically, not bit-for-bit.
    "repro.net.protocol",
    "repro.net.client",
)

#: numpy.random attributes that are part of the seeded-Generator API.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "Philox",
    }
)

#: Canonical callables that read the wall clock.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Set-returning methods whose result has hash-dependent order.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


def stdlib_random(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """DET001: the stdlib ``random`` module is banned outright.

    Its state is process-global and shared across every caller, so any
    new call site reorders every later draw — even ``random.seed`` at
    import time cannot make concurrent users reproducible.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield node, (
                        "import of stdlib `random`: its global state "
                        "breaks seeded replays; thread a "
                        "`numpy.random.Generator` parameter instead"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module == "random":
                yield node, (
                    "import from stdlib `random`: its global state "
                    "breaks seeded replays; thread a "
                    "`numpy.random.Generator` parameter instead"
                )


def legacy_numpy_random(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """DET002: legacy ``np.random.*`` global-state API is banned.

    ``np.random.seed`` / ``np.random.rand`` and friends mutate one
    hidden global ``RandomState``; the repo convention is the explicit
    ``default_rng(seed)`` / ``Generator`` API.
    """
    aliases = collect_import_aliases(tree)
    for call, target in iter_calls(tree, aliases):
        if (
            target
            and target.startswith("numpy.random.")
            and target.rsplit(".", 1)[1] not in _NP_RANDOM_ALLOWED
        ):
            yield call, (
                f"legacy global-state call `{target}`: use a seeded "
                "`numpy.random.default_rng(seed)` Generator instead"
            )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module
            and (
                node.module == "numpy.random"
                or node.module.startswith("numpy.random.")
            )
        ):
            for alias in node.names:
                if alias.name not in _NP_RANDOM_ALLOWED:
                    yield node, (
                        f"import of legacy `numpy.random.{alias.name}`: "
                        "only the Generator API "
                        "(default_rng/Generator/SeedSequence) is allowed"
                    )


def wall_clock(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """DET003: wall-clock reads are banned in simulation code.

    Virtual time comes from the event engine (``Simulator.now``); any
    ``time.time()`` / ``datetime.now()`` sneaking into logic makes runs
    depend on the host clock and unreproducible.
    """
    aliases = collect_import_aliases(tree)
    for call, target in iter_calls(tree, aliases):
        if target in _WALL_CLOCK:
            yield call, (
                f"wall-clock call `{target}`: simulation logic must use "
                "virtual time (Simulator.now), not the host clock"
            )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    return False


def _iter_targets(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for generator in node.generators:
                yield generator.iter


def unsorted_set_iteration(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """DET004: iterating a set feeds hash order into event schedules.

    Set iteration order depends on insertion history and (for strings,
    pre-PYTHONHASHSEED pinning) on the process hash seed.  In packages
    that schedule events or place replicas (:data:`SIM_CRITICAL_PACKAGES`),
    wrap the set in ``sorted(...)`` before iterating.
    """
    for iter_expr in _iter_targets(tree):
        if _is_set_expr(iter_expr):
            yield iter_expr, (
                "iteration over a set: order is hash/insertion dependent "
                "and can reorder scheduled events; iterate "
                "`sorted(<set>)` instead"
            )


def unseeded_default_rng(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """DET005: ``default_rng()`` without a seed pulls OS entropy.

    An argument-less ``default_rng()`` (or an explicit ``None`` seed)
    seeds from the OS and differs on every run; seeds must be explicit
    so experiment configs fully determine results.
    """
    aliases = collect_import_aliases(tree)
    for call, target in iter_calls(tree, aliases):
        if target != "numpy.random.default_rng":
            continue
        if not call.args and not call.keywords:
            yield call, (
                "`default_rng()` with no seed draws OS entropy; pass an "
                "explicit seed (or accept a Generator parameter)"
            )
        elif call.args and isinstance(call.args[0], ast.Constant) and (
            call.args[0].value is None
        ):
            yield call, (
                "`default_rng(None)` draws OS entropy; pass an explicit "
                "seed (or accept a Generator parameter)"
            )
