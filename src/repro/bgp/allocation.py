"""Synthetic global prefix-table generation.

The paper drives its simulation with the APNIC DIX-IE BGP snapshot:
~330,000 IPv4 prefixes covering ~52% of the 32-bit space, announced by
~26,000 ASs (§IV-B.1).  That snapshot is not redistributable and this
environment is offline, so this module synthesizes a table with the same
aggregate statistics:

* a target *announcement ratio* (default 0.52) — the property that drives
  the IP-hole rate and therefore Algorithm 1's rehash behaviour;
* a */24-heavy prefix-length mix* matching published DFZ statistics;
* a *heavy-tailed per-AS address share* (a few ASs announce /8-equivalents,
  most announce a handful of /24s) — the property that drives the
  Normalized Load Ratio distribution (Fig. 6);
* *interleaved holes*: announced blocks are placed at random buddy-aligned
  positions so unannounced space is scattered, matching the fragmented
  real allocation.

Placement uses a buddy allocator over the address space, so generated
prefixes are disjoint.  (Real tables contain covering supernets; overlap
handling is still exercised throughout the test suite via hand-built
tables.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.guid import ADDRESS_BITS
from ..draws import WordStream, choice_cdf
from ..errors import ConfigurationError
from .table import GlobalPrefixTable

#: Prefix-length mix loosely matching published IPv4 DFZ statistics
#: (heavily /24-dominated, with a thin tail of short prefixes).
DEFAULT_LENGTH_MIX: Dict[int, float] = {
    8: 0.0004,
    9: 0.0004,
    10: 0.0008,
    11: 0.0015,
    12: 0.003,
    13: 0.005,
    14: 0.009,
    15: 0.012,
    16: 0.055,
    17: 0.020,
    18: 0.035,
    19: 0.060,
    20: 0.070,
    21: 0.060,
    22: 0.105,
    23: 0.070,
    24: 0.493,
}

#: Paper-scale defaults (§IV-B.1).
PAPER_PREFIX_COUNT = 330_000
PAPER_ANNOUNCEMENT_RATIO = 0.52


@dataclass
class AllocationConfig:
    """Parameters for :func:`generate_global_prefix_table`.

    Attributes
    ----------
    target_ratio:
        Desired announced fraction of the address space.
    prefixes_per_as:
        Mean number of prefixes per AS (paper: 330k / 26.4k ≈ 12.5).
    length_mix:
        Probability mass over prefix lengths.
    count_tail_exponent:
        Pareto exponent for the per-AS prefix-count distribution; smaller
        means heavier tail (a few ASs announcing very many prefixes).
    max_prefixes_per_as:
        Hard cap on prefixes announced by a single AS.
    bits:
        Address-family width.
    """

    target_ratio: float = PAPER_ANNOUNCEMENT_RATIO
    prefixes_per_as: float = 12.5
    length_mix: Dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_LENGTH_MIX)
    )
    count_tail_exponent: float = 1.35
    max_prefixes_per_as: int = 4000
    bits: int = ADDRESS_BITS

    def validate(self) -> None:
        if self.bits < 24:
            # The every-AS pass allocates /24 blocks and the ratio filler
            # /16 ones; a narrower space holds neither.
            raise ConfigurationError(f"bits must be >= 24, got {self.bits}")
        if not 0.0 < self.target_ratio < 1.0:
            raise ConfigurationError("target_ratio must lie in (0, 1)")
        if self.prefixes_per_as <= 0:
            raise ConfigurationError("prefixes_per_as must be positive")
        if not self.length_mix:
            raise ConfigurationError("length_mix must be non-empty")
        for length in self.length_mix:
            if not 0 < length <= self.bits:
                raise ConfigurationError(f"length {length} outside (0, {self.bits}]")


class BuddyAllocator:
    """Random-placement buddy allocator over the address space.

    Blocks are always naturally aligned; a request for a ``/L`` block splits
    a random larger free block down to size.  Randomizing both which free
    block is split and which half survives scatters allocations — and hence
    the residual holes — across the space.
    """

    def __init__(self, bits: int, rng: np.random.Generator) -> None:
        self.bits = bits
        self._rng = rng
        # _free[L] = list of base addresses of free /L blocks.
        self._free: List[List[int]] = [[] for _ in range(bits + 1)]
        self._free[0].append(0)

    def allocate(self, length: int) -> Optional[int]:
        """Allocate a /``length`` block; returns its base, or ``None`` when
        no free block that large remains.  Each call reads a chunk of raw
        words: place many blocks with :meth:`allocate_all`."""
        return self.allocate_all([length])[0]

    def allocate_all(self, lengths: Sequence[int]) -> List[Optional[int]]:
        """:meth:`allocate` each length in turn; returns the bases.

        The picks and coins are ``rng.integers(0, len(pool))`` (none for a
        pool of one) and ``rng.integers(0, 2)``, read in bulk from the bit
        generator's raw words; ``rng`` ends where those draws made one at
        a time leave it, also when a bad length raises.
        """
        free, bits = self._free, self.bits
        stream = WordStream(self._rng)
        bounded, uint32 = stream.bounded, stream.uint32
        bases: List[Optional[int]] = []
        try:
            for length in lengths:
                if not 0 <= length <= bits:
                    raise ConfigurationError(f"block length {length} out of range")
                source = length
                while source >= 0 and not free[source]:
                    source -= 1
                if source < 0:
                    bases.append(None)
                    continue
                pool = free[source]
                if len(pool) > 1:
                    pick = bounded(len(pool))
                    pool[pick], pool[-1] = pool[-1], pool[pick]
                base = pool.pop()
                # Split down to the requested size, keeping a random half
                # each time (the coin ``integers(0, 2)`` is the top bit).
                while source < length:
                    source += 1
                    half_span = 1 << (bits - source)
                    if uint32() >> 31:
                        free[source].append(base)
                        base += half_span
                    else:
                        free[source].append(base + half_span)
                bases.append(base)
        finally:
            stream.commit()
        return bases

    def free_span(self) -> int:
        """Total unallocated address count."""
        return sum(
            len(blocks) << (self.bits - length)
            for length, blocks in enumerate(self._free)
        )


def _draw_per_as_counts(
    n_as: int, config: AllocationConfig, rng: np.random.Generator
) -> np.ndarray:
    """Heavy-tailed per-AS prefix counts with the configured mean."""
    raw = rng.pareto(config.count_tail_exponent, size=n_as) + 1.0
    raw = np.minimum(raw, config.max_prefixes_per_as)
    total_target = max(n_as, int(round(config.prefixes_per_as * n_as)))
    scaled = raw * (total_target / raw.sum())
    counts = np.maximum(1, np.round(scaled)).astype(np.int64)
    return np.minimum(counts, config.max_prefixes_per_as)


def _fit_to_ratio(
    lengths: np.ndarray,
    owners: np.ndarray,
    config: AllocationConfig,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Trim or pad the drawn prefixes so total span ≈ target ratio.

    Oversized tables drop the largest prefixes first, in drawn order
    (preserving the /24-heavy count mix); undersized tables add /16
    filler blocks to ASs sampled proportionally to their existing span
    (preserving the heavy per-AS tail).
    """
    bits = config.bits
    target = int(config.target_ratio * (1 << bits))
    # Exact integer spans: int64 while their sum cannot overflow it.
    wide = len(lengths) << (bits - int(lengths.min())) >= 1 << 63
    spans = np.left_shift(1, (bits - lengths).astype(object if wide else np.int64))
    span = int(spans.sum())

    if span > target:
        # Every block met while span > target goes: one no larger than the
        # excess leaves span >= target, a larger one exceeds half of it.
        order = np.argsort(lengths, kind="stable")
        dropped = np.cumsum(spans[order])
        n_drop = int(np.searchsorted(dropped, span - target)) + 1
        span -= int(dropped[n_drop - 1])
        keep = np.ones(len(lengths), dtype=bool)
        keep[order[:n_drop]] = False
        lengths, owners, spans = lengths[keep], owners[keep], spans[keep]

    if span < target:
        filler_len = 16
        filler_span = 1 << (bits - filler_len)
        asns, inverse = np.unique(owners, return_inverse=True)
        per_as = np.zeros(len(asns), dtype=spans.dtype)
        np.add.at(per_as, inverse, spans)
        weights = per_as.astype(float)
        weights /= weights.sum()
        n_fillers = max(0, (target - span) // filler_span)
        fillers = rng.choice(asns, size=int(n_fillers), p=weights)
        lengths = np.concatenate((lengths, np.full(len(fillers), filler_len)))
        owners = np.concatenate((owners, fillers))

    return lengths, owners


def generate_global_prefix_table(
    asns: Sequence[int],
    config: Optional[AllocationConfig] = None,
    seed: int = 0,
    as_weights: Optional[Dict[int, float]] = None,
) -> GlobalPrefixTable:
    """Synthesize a DFZ-like prefix table for the given ASs.

    Parameters
    ----------
    asns:
        AS numbers participating (each receives at least one prefix).
    config:
        Aggregate statistics to hit; defaults to paper-scale parameters.
    seed:
        Seed for the private RNG — generation is fully deterministic.
    as_weights:
        Optional relative size weights (e.g. from topology tier/degree);
        larger weight biases an AS toward announcing more prefixes.

    Returns
    -------
    GlobalPrefixTable
        Disjoint announcements hitting the configured ratio within one
        /16 of address space.
    """
    if not asns:
        raise ConfigurationError("need at least one AS to allocate prefixes to")
    config = config or AllocationConfig()
    config.validate()
    rng = np.random.default_rng(seed)

    counts = _draw_per_as_counts(len(asns), config, rng)
    if as_weights:
        bias = np.array([max(as_weights.get(a, 1.0), 1e-9) for a in asns])
        bias = bias * (len(asns) / bias.sum())
        counts = np.maximum(1, np.round(counts * bias)).astype(np.int64)
        counts = np.minimum(counts, config.max_prefixes_per_as)

    # One rng.choice(mix, size=count, p=weights) per AS, in AS order: each
    # draws `count` uniforms and inverts the mix's CDF, so one batch of
    # uniforms gives the same lengths.
    mix = np.array(sorted(config.length_mix), dtype=np.int64)
    weights = np.array([config.length_mix[int(l)] for l in mix], dtype=float)
    cdf = choice_cdf(weights / weights.sum())
    lengths = mix[cdf.searchsorted(rng.random(int(counts.sum())), side="right")]
    owners = np.repeat(np.asarray(asns, dtype=np.int64), counts)

    lengths, owners = _fit_to_ratio(lengths, owners, config, rng)

    # Place largest blocks first so buddy alignment always succeeds; the
    # fitted span is below the space, so every block finds room.
    order = np.argsort(lengths, kind="stable")
    lengths, owners = lengths[order].tolist(), owners[order].tolist()
    allocator = BuddyAllocator(config.bits, rng)
    bases = allocator.allocate_all(lengths)

    # Guarantee every AS announces something (the paper's NLR is undefined
    # for ASs with zero announced space), up to the first /24 that does
    # not fit: no later one fits either, and a miss draws nothing.
    covered = set(owners)
    missing = [asn for asn in asns if asn not in covered]
    fixups = allocator.allocate_all([24] * len(missing))
    kept = fixups.index(None) if None in fixups else len(fixups)
    bases += fixups[:kept]
    lengths += [24] * kept
    owners += missing[:kept]

    return GlobalPrefixTable.from_arrays(
        np.array(bases, np.uint64), np.array(lengths), np.array(owners), bits=config.bits
    )
