"""Synthetic DIMES-like Internet topology generation.

The paper's network model is the measured DIMES AS graph: 26,424 ASs,
90,267 links (§IV-B.1).  This generator reproduces its load-bearing
properties with a tiered preferential-attachment construction:

* a small **tier-1 clique** (the default-free core — the Jellyfish model's
  Shell-0, §V-A);
* **transit ASs** multi-homed into the core and peering among themselves;
* a large majority of **stub ASs** attached to one-to-three providers with
  degree-and-proximity preferential attachment (yielding the heavy-tailed
  degree distribution of the real AS graph);
* extra proximity-biased **peering links** added until the target link
  count is met (these flatten the hierarchy, as in the real Internet);
* **end-node populations** drawn Zipf-heavy over stubs, which weight the
  origins of GUID inserts and queries exactly as the DIMES end-node
  dataset does in the paper.

Everything is deterministic given ``seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..draws import integer_sampler, pair_draws, weighted_choice, weighted_sample
from ..errors import ConfigurationError
from .graph import ASTier, ASTopology, adjacency_layout
from .latency import GeographyModel, LatencyModel

#: DIMES graph scale used in the paper (§IV-B.1).
PAPER_N_AS = 26_424
PAPER_N_LINKS = 90_267


@dataclass
class TopologyConfig:
    """Knobs of :func:`generate_internet_topology`.

    Attributes
    ----------
    n_as:
        Total number of ASs.
    target_links:
        Approximate undirected link count (defaults to the paper's
        links-per-AS ratio).
    tier1_fraction, transit_fraction:
        Share of ASs in the core clique and the transit layer.
    stub_extra_provider_prob:
        Probability a stub is multi-homed to a second/third provider.
    population_exponent:
        Zipf exponent for end-node counts over stub ASs.
    total_endnodes:
        Total end-node population to distribute.
    latency, geography:
        Sub-models for latencies and the planar embedding.
    """

    n_as: int = PAPER_N_AS
    target_links: Optional[int] = None
    tier1_fraction: float = 0.0005
    transit_fraction: float = 0.15
    stub_extra_provider_prob: float = 0.45
    population_exponent: float = 1.1
    total_endnodes: int = 50_000_000
    latency: LatencyModel = field(default_factory=LatencyModel)
    geography: GeographyModel = field(default_factory=GeographyModel)

    def validate(self) -> None:
        if self.n_as < 5:
            raise ConfigurationError("need at least 5 ASs")
        if not 0 < self.transit_fraction < 1:
            raise ConfigurationError("transit_fraction must lie in (0, 1)")
        if not 0 <= self.stub_extra_provider_prob <= 1:
            raise ConfigurationError("stub_extra_provider_prob must lie in [0, 1]")
        if self.population_exponent <= 0:
            raise ConfigurationError("population_exponent must be positive")
        if self.total_endnodes < self.n_as:
            raise ConfigurationError("total_endnodes must cover every AS")
        self.latency.validate()
        self.geography.validate()

    def resolved_target_links(self) -> int:
        if self.target_links is not None:
            return self.target_links
        return int(round(self.n_as * PAPER_N_LINKS / PAPER_N_AS))

    def n_tier1(self) -> int:
        return max(4, int(round(self.n_as * self.tier1_fraction)))

    def n_transit(self) -> int:
        return max(2, int(round(self.n_as * self.transit_fraction)))


def small_scale_config(n_as: int = 200, seed_endnodes: int = 100_000) -> TopologyConfig:
    """A small config suitable for unit tests and examples."""
    return TopologyConfig(n_as=n_as, total_endnodes=max(seed_endnodes, n_as))


def as_numbers(n_as: int) -> np.ndarray:
    """The ASNs of a generated ``n_as``-AS topology, ascending: 1..n_as,
    tier-1 ASs first.  They depend on nothing else, so the prefix table
    can be generated for them before the topology exists."""
    return np.arange(1, n_as + 1)


def generate_internet_topology(
    config: Optional[TopologyConfig] = None, seed: int = 0
) -> ASTopology:
    """Generate a connected, DIMES-like AS topology.

    ASNs are :func:`as_numbers`; an AS's index in the construction is its
    ASN - 1.  The result always passes :meth:`ASTopology.validate`.
    """
    config = config or TopologyConfig()
    config.validate()
    rng = np.random.default_rng(seed)
    geo = config.geography
    lat = config.latency

    n = config.n_as
    n_t1 = min(config.n_tier1(), n - 2)
    n_t2 = min(config.n_transit(), n - n_t1 - 1)
    n_t3 = n - n_t1 - n_t2

    # The graph under construction, indexed by ASN - 1: each AS's site
    # and its neighbour -> link latency dict in insertion order.  It
    # becomes an ASTopology once complete.
    positions: List[Tuple[float, float]] = []
    adjacency: List[Dict[int, float]] = [{} for _ in range(n)]
    integers = integer_sampler(rng)

    def connect(a: int, b: int) -> None:
        latency = lat.link_latency_ms(positions[a - 1], positions[b - 1])
        adjacency[a - 1][b] = latency
        adjacency[b - 1][a] = latency

    # --- Tier 1: well-separated backbone sites, full-mesh peering. -----
    t1_asns = list(range(1, n_t1 + 1))
    for asn in t1_asns:
        pos = geo.random_site(rng)
        positions.append(pos)
    for i, a in enumerate(t1_asns):
        for b in t1_asns[i + 1 :]:
            connect(a, b)

    # --- Tier 2: transit providers near core sites. --------------------
    t2_asns = list(range(n_t1 + 1, n_t1 + n_t2 + 1))
    t1_x, t1_y = np.array(positions).T
    for asn in t2_asns:
        pos = geo.near(positions[integers(n_t1)], geo.transit_spread_km, rng)
        positions.append(pos)
        # 1-3 upstream tier-1 providers, nearest-biased.
        n_up = 1 + int(rng.random() < 0.7) + int(rng.random() < 0.25)
        dx, dy = t1_x - pos[0], t1_y - pos[1]
        weights = 1.0 / (dx * dx + dy * dy + 1e4)
        weights /= weights.sum()
        for up in weighted_sample(rng, weights, min(n_up, n_t1)):
            connect(asn, t1_asns[up])

    # Transit-transit peering: each transit peers with ~1 other, degree- and
    # proximity-biased.  ``deg`` tracks the transit degrees link by link.
    t2_x, t2_y = np.array(positions[n_t1:]).T
    deg = np.array([len(adjacency[asn - 1]) for asn in t2_asns], dtype=float)
    for i, asn in enumerate(t2_asns):
        if rng.random() < 0.6 and n_t2 > 1:
            dx, dy = t2_x - t2_x[i], t2_y - t2_y[i]
            weights = (deg + 1.0) / (dx * dx + dy * dy + 1e5)
            weights[i] = 0.0
            j = weighted_choice(rng, weights / weights.sum())
            peer = t2_asns[j]
            if peer not in adjacency[asn - 1]:
                connect(asn, peer)
                deg[i] += 1.0
                deg[j] += 1.0

    # --- Tier 3: stubs via degree+proximity preferential attachment. ---
    for asn in range(n_t1 + n_t2 + 1, n + 1):
        # Anchor near a random provider region (population clusters).
        pos = geo.near(positions[n_t1 + integers(n_t2)], geo.stub_spread_km, rng)
        positions.append(pos)
        n_prov = 1
        if rng.random() < config.stub_extra_provider_prob:
            n_prov += 1
            if rng.random() < 0.3:
                n_prov += 1
        dx, dy = t2_x - pos[0], t2_y - pos[1]
        weights = (deg + 1.0) / (dx * dx + dy * dy + 1e5)
        weights /= weights.sum()
        for c in weighted_sample(rng, weights, min(n_prov, n_t2)):
            connect(asn, t2_asns[c])
            deg[c] += 1.0

    # --- Extra peering links up to the target count. --------------------
    target = config.resolved_target_links()
    links = sum(len(nbrs) for nbrs in adjacency) // 2
    max_attempts = 20 * max(target - links, 0) + 100
    add_peering_links(rng, positions, adjacency, connect, target, max_attempts)

    # --- Attributes: intra-AS latency and end-node populations. --------
    intra = lat.intra_latencies_ms(n, rng, allow_outliers=False)
    # Outliers only on stubs: a huge backbone with 2.3 s internal latency
    # would be unrealistic, and the paper's exemplar (AS 23951) is a small
    # stub AS.
    stub_mask = np.zeros(n, dtype=bool)
    stub_mask[n_t1 + n_t2 :] = True
    if lat.outlier_fraction > 0 and n_t3 > 0:
        out = rng.random(n) < lat.outlier_fraction
        out &= stub_mask
        n_out = int(out.sum())
        if n_out:
            intra[out] = np.exp(
                rng.uniform(
                    math.log(lat.outlier_low_ms), math.log(lat.outlier_high_ms), n_out
                )
            )
    # Core networks are faster internally than the global median.
    intra[: n_t1 + n_t2] *= 0.6

    populations = _zipf_populations(
        n, stub_mask, config.population_exponent, config.total_endnodes, rng
    )

    x, y = zip(*positions)
    topo = ASTopology(
        adjacency_layout(
            {
                "asn": as_numbers(n),
                "tier": np.repeat(
                    [ASTier.TIER1, ASTier.TRANSIT, ASTier.STUB], [n_t1, n_t2, n_t3]
                ),
                "intra_ms": intra,
                "endnodes": populations,
                "pos_x": x,
                "pos_y": y,
            },
            adjacency,
        )
    )
    topo.validate()
    return topo


#: Peering attempts decoded per pass of :func:`add_peering_links`.
PEERING_CHUNK = 4096

#: How near (in ulps of the threshold) a peering draw may lie to its
#: acceptance threshold and still be decided in numpy.  ``np.hypot`` and
#: ``np.exp`` may differ from ``math``'s by an ulp or two, so a draw
#: nearer than this is decided with the ``math`` expression.
PEERING_ULPS = 4096.0


def add_peering_links(
    rng: np.random.Generator,
    positions: List[Tuple[float, float]],
    adjacency: List[Dict[int, float]],
    connect: Callable[[int, int], None],
    target: int,
    max_attempts: int,
) -> int:
    """Add proximity-biased peering links until the graph has ``target``
    links or ``max_attempts`` attempts were made; returns the attempts.

    The draws, and so every later draw of ``rng``, are those of the loop ::

        while links < target and attempts < max_attempts:
            attempts += 1
            a = integers(n) + 1; b = integers(n) + 1
            if a == b: continue
            if rng.random() > math.exp(-math.hypot(ax - bx, ay - by) / 2000.0):
                continue
            if b in adjacency[a - 1]: continue
            connect(a, b); links += 1

    run :data:`PEERING_CHUNK` attempts at a time: :func:`pair_draws`
    decodes them, numpy tests them against the threshold (a draw within
    :data:`PEERING_ULPS` of it is tested as above), and only the accepted
    ones are checked against the graph and connected in order.
    """
    n = len(positions)
    xs, ys = np.array(positions).T
    links = sum(len(nbrs) for nbrs in adjacency) // 2
    attempts = 0
    while links < target and attempts < max_attempts:
        a, b, u, commit = pair_draws(rng, n, min(PEERING_CHUNK, max_attempts - attempts))
        # Peering is overwhelmingly local (IXP-style).
        threshold = np.exp(-np.hypot(xs[a] - xs[b], ys[a] - ys[b]) / 2000.0)
        accept = u <= threshold  # nan (a == b) is never accepted
        near = np.abs(u - threshold) <= PEERING_ULPS * np.spacing(threshold)
        for i in np.flatnonzero(near).tolist():
            (ax, ay), (bx, by) = positions[a[i]], positions[b[i]]
            accept[i] = not u[i] > math.exp(-math.hypot(ax - bx, ay - by) / 2000.0)
        used = len(u)
        picked = np.flatnonzero(accept)
        for i, p, q in zip(picked.tolist(), (a[picked] + 1).tolist(), (b[picked] + 1).tolist()):
            if q in adjacency[p - 1]:
                continue
            connect(p, q)
            links += 1
            if links == target:
                used = i + 1
                break
        commit(used)
        attempts += used
    return attempts


def _zipf_populations(
    n: int,
    stub_mask: np.ndarray,
    exponent: float,
    total: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Distribute ``total`` end nodes: Zipf-heavy over stubs, light
    elsewhere.

    Every AS gets at least one end node so any AS can originate queries,
    matching the paper's source model (weights proportional to end-node
    counts, §IV-B.1).
    """
    ranks = np.arange(1, n + 1, dtype=float)
    weights = 1.0 / ranks**exponent
    rng.shuffle(weights)
    # Providers host few end nodes compared to access networks.
    weights[~stub_mask] *= 0.05 if stub_mask.any() else 1.0
    weights /= weights.sum()
    populations = np.maximum(1, np.floor(weights * total)).astype(np.int64)
    return populations
