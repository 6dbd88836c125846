"""The lint rules, as one table.

Rule ids are grouped by family:

* ``DET0xx`` — determinism (seeded-RNG discipline, wall-clock bans,
  iteration-order hazards);
* ``HYG0xx`` — API hygiene (mutable defaults, float equality, bare
  except, ``__all__`` honesty, return annotations).

Each entry is ``(rule_id, packages, check)``: ``check`` maps a parsed
module to ``(node, message)`` findings, and ``packages`` lists the
dotted-module prefixes the rule applies to (empty: every module).  A
package scope is the only way to exempt code from a rule, so every
exception is reviewed here, in the table.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, Tuple

from . import determinism as det
from . import hygiene as hyg

Check = Callable[[ast.Module], Iterator[Tuple[ast.AST, str]]]

RULES: Tuple[Tuple[str, Tuple[str, ...], Check], ...] = (
    ("DET001", (), det.stdlib_random),
    ("DET002", (), det.legacy_numpy_random),
    ("DET003", (), det.wall_clock),
    ("DET004", det.SIM_CRITICAL_PACKAGES, det.unsorted_set_iteration),
    ("DET005", (), det.unseeded_default_rng),
    ("HYG001", (), hyg.mutable_default),
    ("HYG002", ("repro.sim", "repro.analysis"), hyg.float_equality),
    ("HYG003", (), hyg.bare_except),
    ("HYG004", (), hyg.phantom_export),
    ("HYG005", ("repro.core", "repro.sim"), hyg.missing_return_annotation),
)
