"""Analytical upper bound on query response time (§V).

Given the Jellyfish layer ratios ``r_j`` (fraction of PoPs in Layer(j),
j = 0..N-1) and K replicas placed uniformly at random, the paper bounds
the expected distance from a random source to its closest replica:

*  ``P(d(s, t_i) > l | s in Layer(j)) <= p_{j,l}`` where
   ``p_{j,l} = r_{l-j} + r_{l+1-j} + ...`` (indices outside [0, N-1]
   contribute 0; when ``l - j <= 0`` the sum saturates at 1);
*  the K destinations are independent, so
   ``P(min_i d(s, t_i) <= l) > q_l`` with
   ``q_l = sum_j r_j * (1 - p_{j,l}^K)``;
*  since the graph diameter is at most ``2N - 1``,
   ``E[min_i d(s, t_i)] < sum_{l=1}^{2N-1} (1 - q_l)``;
*  assuming response time is affine in PoP path length,
   ``E[tau] < c0 * E[min d] + c1`` with the paper's least-squares fit
   ``c0, c1 = 10.6, 8.3`` (ms per hop, ms).

The bound ignores intra-layer peering links, so "actual values ... will
typically be smaller" (§V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError

#: The paper's measured least-squares constants (§V-C).
PAPER_C0 = 10.6
PAPER_C1 = 8.3


def _validate_ratios(ratios: Sequence[float]) -> np.ndarray:
    r = np.asarray(list(ratios), dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ConfigurationError("layer ratios must be a non-empty 1-D sequence")
    if (r < 0).any():
        raise ConfigurationError("layer ratios must be non-negative")
    total = r.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        raise ConfigurationError(f"layer ratios must sum to 1 (got {total:.6f})")
    return r


def p_jl(ratios: Sequence[float], j: int, l: int) -> float:
    """``p_{j,l}``: bound on ``P(d(s, t) > l | s in Layer(j))``.

    The tail mass of layers ``l - j`` and beyond; saturates at 1 when the
    window covers every layer.
    """
    r = _validate_ratios(ratios)
    n = r.size
    if not 0 <= j < n:
        raise ConfigurationError(f"layer index {j} out of range [0, {n})")
    start = l - j
    if start <= 0:
        return 1.0
    if start >= n:
        return 0.0
    return float(r[start:].sum())


def q_l(ratios: Sequence[float], l: int, k: int) -> float:
    """``q_l``: lower bound on ``P(min_i d(s, t_i) <= l)`` over K replicas."""
    r = _validate_ratios(ratios)
    if k < 1:
        raise ConfigurationError("K must be >= 1")
    total = 0.0
    for j in range(r.size):
        total += r[j] * (1.0 - p_jl(r, j, l) ** k)
    return float(total)


def expected_min_distance_bound(ratios: Sequence[float], k: int) -> float:
    """Upper bound on ``E[min_i d(s, t_i)]`` (Eq. just before Eq. 3)."""
    r = _validate_ratios(ratios)
    n = r.size
    bound = 0.0
    for l in range(1, 2 * n):
        bound += 1.0 - q_l(r, l, k)
    return bound


def response_time_upper_bound_ms(
    ratios: Sequence[float],
    k: int,
    c0: float = PAPER_C0,
    c1: float = PAPER_C1,
) -> float:
    """``E[tau] < c0 * E[min d] + c1`` (Eq. 3) — the Fig. 7 quantity."""
    if c0 < 0:
        raise ConfigurationError("c0 must be non-negative")
    return c0 * expected_min_distance_bound(ratios, k) + c1


@dataclass(frozen=True)
class AnalyticalModel:
    """Convenience wrapper binding one topology scenario's ratios."""

    name: str
    ratios: Tuple[float, ...]
    c0: float = PAPER_C0
    c1: float = PAPER_C1

    def __post_init__(self) -> None:
        _validate_ratios(self.ratios)

    @property
    def n_layers(self) -> int:
        return len(self.ratios)

    def bound_ms(self, k: int) -> float:
        """Response-time upper bound for K replicas."""
        return response_time_upper_bound_ms(self.ratios, k, self.c0, self.c1)

    def sweep(self, k_values: Sequence[int]) -> np.ndarray:
        """Bounds over a range of K — one Fig. 7 curve."""
        return np.asarray([self.bound_ms(k) for k in k_values], dtype=float)
