"""Exact-draw helpers: numpy ``Generator`` draws without the per-call cost.

Each helper consumes the generator's bits in the same order as the numpy
call it names and returns the same value, so the substrate generators keep
their streams while skipping numpy's argument parsing and ``p`` checks.
``tests/test_draws.py`` pins each one against numpy, generator state too.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np


def integer_sampler(rng: np.random.Generator) -> Callable[[int], int]:
    """``draw(n)``, exactly ``int(rng.integers(0, n))``: for ``1 < n < 2**32``
    numpy's Lemire rejection (arXiv 1805.10941) over the bit generator's
    ``next_uint32``, no draw for ``n == 1``, and numpy itself otherwise."""
    # ``draw`` holds ``rng``, so the state that ``state`` points to lives.
    funcs = rng.bit_generator.ctypes
    next_uint32, state = funcs.next_uint32, funcs.state

    def draw(n: int) -> int:
        if not 1 < n <= 0xFFFFFFFF:
            return 0 if n == 1 else int(rng.integers(0, n))
        m = next_uint32(state) * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * n
        return m >> 32

    return draw


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice`` inverts for the probabilities ``p``."""
    cdf = np.add.accumulate(p)
    cdf /= cdf[-1]
    return cdf


def weighted_choice(rng: np.random.Generator, p: np.ndarray) -> int:
    """Exactly ``int(rng.choice(len(p), p=p))``: one uniform, inverted."""
    return int(choice_cdf(p).searchsorted(rng.random(), side="right"))


def weighted_sample(rng: np.random.Generator, p: np.ndarray, k: int) -> List[int]:
    """Exactly ``rng.choice(len(p), size=k, replace=False, p=p).tolist()``.

    Like numpy it draws ``k`` uniforms, keeps each index's first hit, and
    redraws the rest with the hits' weights zeroed; it raises before any
    draw when fewer than ``k`` weights are positive, so redraws end.
    """
    if np.count_nonzero(p > 0) < k:
        raise ValueError("Fewer non-zero entries in p than size")
    picks: List[int] = []
    while len(picks) < k:
        if picks:
            p = p.copy()
            p[picks] = 0
        x = rng.random(k - len(picks))
        for pick in choice_cdf(p).searchsorted(x, side="right").tolist():
            if pick not in picks:
                picks.append(pick)
    return picks
