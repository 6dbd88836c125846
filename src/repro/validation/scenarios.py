"""Seeded randomized scenario generation for differential testing.

A *scenario* is everything both execution paths need to replay the same
experiment: a topology + router substrate, a synthetic BGP table, a
deterministic availability model, and a timed insert / update / churn /
lookup trace.  One integer seed fully determines all of it, so any
mismatch the differ finds is reproducible from that seed alone.

Two determinism rules shape the design:

* **Availability is a pure function of (asn, guid).**  The DES probes a
  replica once per contact while the analytic resolver evaluates the
  whole attempt sequence up front, so i.i.d. per-attempt draws (as in
  :class:`~repro.sim.failures.ChurnFailureModel`) would desynchronize
  the two paths by construction.  :class:`ScenarioAvailability` instead
  derives every outcome from a salted SHA-256 of the (asn, guid) pair.
* **Downness comes in two tiers.**  A ``lossy`` AS times out on global
  lookups but still accepts writes and migrations (a mapping-service
  brown-out); a ``dead`` AS drops every request.  Dead ASs are restricted
  to non-hosting, non-home ASs — a dead *host* would swallow INSERTs and
  stall the write path in the DES, which the instant-mode resolver cannot
  model — and are disabled in churn scenarios, where a MIGRATE to a dead
  AS would silently diverge from the resolver's instant migration.

Trace phases are spaced far apart (100 s of virtual time) so every
operation quiesces in the DES before the next one starts; within the
lookup phase each query gets its own timestamp, which doubles as the
match key between the two paths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..bgp.allocation import AllocationConfig, generate_global_prefix_table
from ..bgp.prefix import Announcement, Prefix
from ..bgp.table import GlobalPrefixTable
from ..core.guid import GUID, NetworkAddress
from ..core.resolver import OUTCOME_HIT, OUTCOME_MISSING, OUTCOME_TIMEOUT
from ..hashing.asnum_placer import ASNumberPlacer
from ..hashing.hashers import Sha256Hasher
from ..hashing.rehash import GuidPlacer
from ..sim.failures import FailureModel
from ..topology.generator import generate_internet_topology, small_scale_config
from ..topology.graph import ASTopology
from ..topology.routing import Router

#: Trace operation kinds.
OP_INSERT = "insert"
OP_UPDATE = "update"
OP_WITHDRAW = "withdraw"
OP_ANNOUNCE = "announce"
OP_LOOKUP = "lookup"

#: Domain-separation constant mixed into every scenario seed.
_SCENARIO_STREAM = 0xD1FF


@dataclass(frozen=True)
class TraceOp:
    """One timed operation, replayed identically through both paths.

    ``at`` is the virtual issue time in ms; it is unique per operation
    and serves as the correlation key between the analytic replay and
    the DES records.
    """

    kind: str
    at: float
    guid_value: Optional[int] = None
    asn: Optional[int] = None
    locators: Tuple[NetworkAddress, ...] = ()
    prefix: Optional[Prefix] = None
    announcement: Optional[Announcement] = None


@dataclass(frozen=True)
class ScenarioConfig:
    """The randomized dimensions drawn for one scenario."""

    seed: int
    n_as: int
    topo_seed: int
    prefixes_per_as: float
    target_ratio: float
    k: int
    placement: str  # "address" (Algorithm 1) or "asnum" (§VII variant)
    selection_policy: str
    local_replica: bool
    timeout_ms: float
    stale_rate: float
    lossy_fraction: float
    with_churn: bool
    n_guids: int
    n_moves: int
    n_lookups: int
    n_dead: int

    def describe(self) -> str:
        """One-line rendering for reports."""
        return (
            f"seed={self.seed} n_as={self.n_as} k={self.k} "
            f"placement={self.placement} policy={self.selection_policy} "
            f"local={self.local_replica} timeout={self.timeout_ms:g}ms "
            f"stale={self.stale_rate:g} lossy={self.lossy_fraction:g} "
            f"churn={self.with_churn} guids={self.n_guids} "
            f"moves={self.n_moves} lookups={self.n_lookups} dead={self.n_dead}"
        )


class ScenarioAvailability(FailureModel):
    """Deterministic per-(asn, guid) availability shared by both paths.

    * ``lossy`` ASs: every global lookup times out; writes and local
      reads succeed (``is_down`` stays ``False`` so INSERT/MIGRATE land).
    * ``dead`` ASs: the whole mapping service is down (``is_down``);
      requests vanish, including the querier's own local branch.
    * Stale-view misses: a salted hash of (asn, guid) fires a "GUID
      missing" reply with probability ``stale_rate`` — the same fate on
      every contact, however many times either path probes the pair.
    """

    def __init__(
        self,
        stale_rate: float,
        lossy_asns: FrozenSet[int],
        dead_asns: FrozenSet[int],
        salt: int,
    ) -> None:
        self.stale_rate = float(stale_rate)
        self.lossy = frozenset(int(a) for a in lossy_asns)
        self.dead = frozenset(int(a) for a in dead_asns)
        self.salt = int(salt)

    def _stale(self, asn: int, guid: GUID) -> bool:
        if self.stale_rate <= 0.0:
            return False
        digest = hashlib.sha256(
            f"stale:{self.salt}:{asn}:{guid.value}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return unit < self.stale_rate

    def lookup_outcome(self, asn: int, guid: GUID) -> str:
        """Fate of a global lookup arriving at ``asn``."""
        if asn in self.lossy or asn in self.dead:
            return OUTCOME_TIMEOUT
        if self._stale(asn, guid):
            return OUTCOME_MISSING
        return OUTCOME_HIT

    def is_down(self, asn: int) -> bool:
        """Whether the AS's mapping service drops every request."""
        return asn in self.dead


@dataclass(frozen=True)
class Scenario:
    """A fully-materialized scenario, ready for both engines.

    The substrate (topology, router) is shared read-only between the two
    paths; the prefix table is *not* — each engine mutates its own copy
    (obtained via :meth:`fresh_table`) through the identical churn
    schedule, modelling two gateways tracking the same BGP feed.
    """

    config: ScenarioConfig
    topology: ASTopology
    router: Router
    base_table: GlobalPrefixTable
    availability: ScenarioAvailability
    trace: Tuple[TraceOp, ...]
    guids: Tuple[GUID, ...]

    def fresh_table(self) -> GlobalPrefixTable:
        """An independent table copy for one engine to mutate."""
        return self.base_table.copy()

    def make_placer(self, table: GlobalPrefixTable):
        """The configured placement scheme bound to ``table``."""
        if self.config.placement == "asnum":
            return ASNumberPlacer(self.base_table.asns(), self.config.k)
        hash_family = Sha256Hasher(self.config.k, address_bits=table.bits)
        return GuidPlacer(hash_family, table)

    @property
    def n_lookup_ops(self) -> int:
        """Number of lookup operations in the trace."""
        return sum(1 for op in self.trace if op.kind == OP_LOOKUP)

    @property
    def n_write_ops(self) -> int:
        """Number of insert/update operations in the trace."""
        return sum(1 for op in self.trace if op.kind in (OP_INSERT, OP_UPDATE))


#: Substrate cache: topology generation dominates scenario cost and the
#: (n_as, topo_seed) grid is tiny, so substrates are shared per process.
_SUBSTRATE_CACHE: Dict[Tuple[int, int], Tuple[ASTopology, Router]] = {}


def _substrate(n_as: int, topo_seed: int) -> Tuple[ASTopology, Router]:
    key = (n_as, topo_seed)
    cached = _SUBSTRATE_CACHE.get(key)
    if cached is None:
        topology = generate_internet_topology(small_scale_config(n_as=n_as), topo_seed)
        cached = (topology, Router(topology))
        _SUBSTRATE_CACHE[key] = cached
    return cached


def _draw_config(seed: int, rng: np.random.Generator) -> ScenarioConfig:
    with_churn = bool(rng.random() < 0.45)
    return ScenarioConfig(
        seed=seed,
        n_as=int(rng.choice(np.array([60, 90, 120]))),
        topo_seed=int(rng.integers(0, 4)),
        prefixes_per_as=float(rng.choice(np.array([3.0, 5.0, 8.0]))),
        target_ratio=float(rng.choice(np.array([0.35, 0.52]))),
        k=int(rng.choice(np.array([1, 3, 5]))),
        placement="asnum" if rng.random() < 0.25 else "address",
        selection_policy=str(rng.choice(np.array(["latency", "hops"]))),
        local_replica=bool(rng.random() < 0.7),
        timeout_ms=float(rng.choice(np.array([400.0, 1000.0, 2500.0]))),
        stale_rate=float(rng.choice(np.array([0.0, 0.05, 0.2]))),
        lossy_fraction=float(rng.choice(np.array([0.0, 0.15, 0.35]))),
        with_churn=with_churn,
        n_guids=int(rng.integers(10, 25)),
        n_moves=int(rng.integers(0, 8)),
        n_lookups=int(rng.integers(25, 50)),
        n_dead=0 if with_churn else int(rng.integers(0, 3)),
    )


def _pick(rng: np.random.Generator, pool: List[int]) -> int:
    return int(pool[int(rng.integers(0, len(pool)))])


def generate_scenario(seed: int) -> Scenario:
    """Materialize the scenario determined by ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence((_SCENARIO_STREAM, seed)))
    config = _draw_config(seed, rng)
    topology, router = _substrate(config.n_as, config.topo_seed)
    table = generate_global_prefix_table(
        topology.asns(),
        AllocationConfig(
            prefixes_per_as=config.prefixes_per_as,
            target_ratio=config.target_ratio,
        ),
        seed=int(rng.integers(0, 1 << 31)),
    )
    asns = table.asns()

    # Placement used only to *generate* the trace (hosting sets, lossy
    # replicas, withdrawal targets); both engines re-derive their own.
    if config.placement == "asnum":
        gen_placer = ASNumberPlacer(asns, config.k)
    else:
        gen_placer = GuidPlacer(
            Sha256Hasher(config.k, address_bits=table.bits), table
        )

    guids = tuple(
        GUID.from_name(f"dmap-scn-{seed}-g{i}") for i in range(config.n_guids)
    )
    homes: List[int] = [_pick(rng, asns) for _ in guids]
    home_history: List[List[int]] = [[h] for h in homes]

    hosting: Dict[int, List[int]] = {
        g.value: gen_placer.hosting_asns(g) for g in guids
    }
    hosting_union = sorted({asn for hosts in hosting.values() for asn in hosts})

    trace: List[TraceOp] = []

    # -- Phase 0: one insert per GUID (spaced; inter-GUID independent). --
    for i, guid in enumerate(guids):
        trace.append(
            TraceOp(
                OP_INSERT,
                at=50.0 * i,
                guid_value=guid.value,
                asn=homes[i],
                locators=(table.representative_address(homes[i]),),
            )
        )

    # -- Phase 1: mobility — re-bind some GUIDs to a new attachment AS. --
    moved: List[int] = []
    move_targets = sorted(rng.permutation(len(guids)).tolist()[: config.n_moves])
    for j, gi in enumerate(move_targets):
        new_home = _pick(rng, asns)
        while new_home == homes[gi] and len(asns) > 1:
            new_home = _pick(rng, asns)
        homes[gi] = new_home
        home_history[gi].append(new_home)
        moved.append(gi)
        trace.append(
            TraceOp(
                OP_UPDATE,
                at=1_000_000.0 + 100_000.0 * j,
                guid_value=guids[gi].value,
                asn=new_home,
                locators=(table.representative_address(new_home),),
            )
        )

    homes_ever = sorted({h for history in home_history for h in history})

    # -- Failure sets (drawn before churn so both phases see them). -----
    lossy: List[int] = []
    blackout_gi: Optional[int] = None
    if config.lossy_fraction > 0.0 and hosting_union:
        n_lossy = int(round(config.lossy_fraction * len(hosting_union)))
        if n_lossy:
            picked = rng.choice(
                len(hosting_union), size=min(n_lossy, len(hosting_union)), replace=False
            )
            lossy = sorted(int(hosting_union[int(i)]) for i in picked)
        if rng.random() < 0.5:
            # Blackout: every global replica of one GUID times out, so
            # only the local branch (or nothing) can answer it.
            blackout_gi = int(rng.integers(0, len(guids)))
            lossy = sorted(set(lossy) | set(hosting[guids[blackout_gi].value]))
    dead: List[int] = []
    if config.n_dead:
        eligible = sorted(set(asns) - set(hosting_union) - set(homes_ever))
        for _ in range(min(config.n_dead, len(eligible))):
            choice = _pick(rng, eligible)
            dead.append(choice)
            eligible.remove(choice)
        dead.sort()

    availability = ScenarioAvailability(
        config.stale_rate, frozenset(lossy), frozenset(dead), salt=seed
    )

    # -- Phase 2: churn — withdraw prefixes that host live replicas. ----
    withdrawn: List[Prefix] = []
    if config.with_churn:
        candidates: List[Prefix] = []
        seen = set()
        if config.placement == "address":
            for guid in guids:
                for res in gen_placer.resolve_all(guid):
                    ann = table.resolve(res.address)
                    if ann is None or ann.asn in homes_ever:
                        continue
                    if ann.prefix not in seen:
                        seen.add(ann.prefix)
                        candidates.append(ann.prefix)
        else:
            for asn in asns:
                if asn in homes_ever:
                    continue
                for prefix in table.prefixes_of(asn):
                    if prefix not in seen:
                        seen.add(prefix)
                        candidates.append(prefix)
        n_withdraw = min(int(rng.integers(1, 3)), len(candidates))
        for j in range(n_withdraw):
            prefix = candidates.pop(int(rng.integers(0, len(candidates))))
            withdrawn.append(prefix)
            trace.append(
                TraceOp(OP_WITHDRAW, at=2_000_000.0 + 100_000.0 * j, prefix=prefix)
            )

        # Mid-churn lookups: exercise the post-withdrawal placement
        # (deputy fallback / migrated copies) before any re-announcement.
        for q in range(int(rng.integers(3, 7))):
            gi = int(rng.integers(0, len(guids)))
            trace.append(
                TraceOp(
                    OP_LOOKUP,
                    at=2_500_000.0 + 50_000.0 * q,
                    guid_value=guids[gi].value,
                    asn=_pick(rng, asns),
                )
            )

    # -- Phase 3: flap — re-announce the first withdrawn prefix. --------
    if withdrawn:
        original = None
        for ann in sorted(
            iter(table), key=lambda a: (a.prefix.base, a.prefix.length)
        ):
            if ann.prefix == withdrawn[0]:
                original = ann
                break
        if original is not None:
            trace.append(
                TraceOp(OP_ANNOUNCE, at=3_000_000.0, announcement=original)
            )

    # -- Phase 4: the main lookup batch. --------------------------------
    # Bias queries toward moved GUIDs and their previous homes — that is
    # where stale local copies and capture/migration transients live.
    guid_pool = list(range(len(guids))) + moved + moved
    querier_pool = list(asns) + homes_ever + homes_ever + dead + dead
    forced: List[Tuple[int, int]] = []
    if dead:
        # Dead queriers exercise the dropped-local-branch corner; pair
        # one with the blackout GUID when both exist so the all-fail
        # path is hit deterministically.
        gi = blackout_gi if blackout_gi is not None else int(rng.integers(0, len(guids)))
        forced.append((gi, dead[0]))
    for q in range(config.n_lookups):
        if forced:
            gi, querier = forced.pop()
        else:
            gi = guid_pool[int(rng.integers(0, len(guid_pool)))]
            querier = querier_pool[int(rng.integers(0, len(querier_pool)))]
        trace.append(
            TraceOp(
                OP_LOOKUP,
                at=4_000_000.0 + 100_000.0 * q,
                guid_value=guids[gi].value,
                asn=int(querier),
            )
        )

    trace.sort(key=lambda op: op.at)
    return Scenario(
        config=config,
        topology=topology,
        router=router,
        base_table=table,
        availability=availability,
        trace=tuple(trace),
        guids=guids,
    )
