"""Static-analysis tooling for the DMap reproduction.

The simulation results this repo reproduces (Fig. 4-7, Table 1) are only
trustworthy when runs are bit-for-bit reproducible under a fixed seed.
``repro.tooling`` is a stdlib-``ast`` linter that machine-checks the
invariants that keep them that way:

* **determinism** -- no process-global RNGs, no wall-clock reads, no
  hash-order-dependent iteration feeding event queues;
* **API hygiene** -- no mutable default arguments, no float ``==``, no
  bare ``except``, honest ``__all__`` exports, annotated public APIs.

The rules are one table, :data:`repro.tooling.rules.RULES`, of
``(rule_id, packages, check)``; :mod:`repro.tooling.lint` runs it over
files.  Run it with ``python -m repro.tooling.lint src/repro examples``.
It has no third-party dependencies, so it works in offline environments
where ruff/mypy are unavailable.
"""
