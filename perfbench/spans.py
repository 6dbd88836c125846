"""Outside-in span accounting: wraps public functions of the program.

The traced run replaces each listed function with a wrapper that counts
calls and measures wall time.  A span's *self* time is its duration minus
the time its nested (also wrapped) calls took, so the self times of all
layers add up to the time spent inside any of them.  Spans are folded
into per-name totals as they close, rather than kept one by one: the
per-layer metrics need only totals, and the hottest wrapped function
(longest-prefix match) runs half a million times per run.

Stats are kept per *phase* (cold set-up, warm set-up, timed run), so a
layer's set-up cost and run cost are reported separately.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple


class SpanStats:
    """Totals of one span name within one phase."""

    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class SpanTracer:
    """Installs timing wrappers and folds their spans into phase totals."""

    def __init__(self) -> None:
        self.phases: Dict[str, Dict[str, SpanStats]] = {}
        self._current: Dict[str, SpanStats] = {}
        # Child time accumulated by the currently open spans, innermost last.
        self._open: List[float] = []
        self._patches: List[Tuple[object, str, object, object]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        timed: bool = True,
    ) -> None:
        """Register a wrapper of ``owner.attr`` recording span ``name``.

        ``timed=False`` only counts calls (for functions too hot to time
        without distorting their callers).
        """
        original = getattr(owner, attr)

        if timed:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                stats = self._stats(name)
                stats.calls += 1
                self._open.append(0.0)
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    children = self._open.pop()
                    stats.self_s += elapsed - children
                    if self._open:
                        self._open[-1] += elapsed

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self._stats(name).calls += 1
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original, wrapper))

    def _stats(self, name: str) -> SpanStats:
        stats = self._current.get(name)
        if stats is None:
            stats = self._current[name] = SpanStats()
        return stats

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Activate every wrapper for the duration of the block."""
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _wrapper in reversed(self._patches):
                setattr(owner, attr, original)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate spans closed inside the block under phase ``name``
        (re-entering a phase adds to its totals)."""
        previous = self._current
        self._current = self.phases.setdefault(name, {})
        try:
            yield
        finally:
            self._current = previous

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def calls(self, phase: str, name: str) -> int:
        stats = self.phases.get(phase, {}).get(name)
        return 0 if stats is None else stats.calls

    def self_s(self, phase: str, name: str) -> float:
        stats = self.phases.get(phase, {}).get(name)
        return 0.0 if stats is None else stats.self_s
