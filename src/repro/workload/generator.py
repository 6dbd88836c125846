"""Workload generation: GUID insert-then-lookup streams.

Reproduces the paper's workload (§IV-B.1):

* each GUID's **home AS** (insert origin) is drawn population-weighted;
* **lookup targets** follow the Mandelbrot-Zipf popularity model (Eq. 1);
* **lookup origins** are drawn population-weighted, independently of the
  target, globally distributing sources;
* inserts happen in a first phase, lookups in a second, so every query
  targets a fully inserted mapping (the paper verified convergence at
  10^5 GUIDs / 10^6 queries).

A generated stream is stored as arrays (:class:`LookupArrays`), which the
batched engine reads as they are; the per-event walks (the scalar
resolver and the DES) read the :attr:`Workload.events` view built from
them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..bgp.table import GlobalPrefixTable
from ..core.guid import GUID, NetworkAddress
from ..core.resolver import FailureModel
from ..errors import LookupFailedError, WorkloadError
from ..topology.graph import ASTopology
from .popularity import MandelbrotZipf, PAPER_ALPHA, PAPER_Q
from .sources import SourceSampler


class EventKind(enum.Enum):
    """The event types of a generated stream: the paper's inserts and
    lookups (§IV-B.1)."""

    INSERT = "insert"
    LOOKUP = "lookup"


@dataclass(frozen=True)
class WorkloadEvent:
    """One scheduled protocol operation."""

    kind: EventKind
    time_ms: float
    guid: GUID
    source_asn: int


@dataclass
class WorkloadConfig:
    """Workload shape parameters.

    Defaults follow the paper's converged configuration: 10^5 GUIDs and
    10^6 lookups (scale down for tests via the constructor).
    """

    n_guids: int = 100_000
    n_lookups: int = 1_000_000
    alpha: float = PAPER_ALPHA
    q: float = PAPER_Q
    insert_window_ms: float = 60_000.0
    lookup_window_ms: float = 600_000.0
    gap_ms: float = 10_000.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_guids < 1:
            raise WorkloadError("n_guids must be >= 1")
        if self.n_lookups < 0:
            raise WorkloadError("n_lookups must be >= 0")
        if self.insert_window_ms < 0 or self.lookup_window_ms < 0 or self.gap_ms < 0:
            raise WorkloadError("windows must be non-negative")


class LookupArrays(NamedTuple):
    """An insert-then-lookup stream as batched-engine input."""

    #: Inserted GUIDs, in insert order (rank order for a generated stream).
    guids: List[GUID]
    #: Home AS of each GUID: where it is inserted and its local copy lives.
    local_asns: np.ndarray
    #: Per lookup, in issue order: index into ``guids``, source AS and
    #: issue time.
    guid_idx: np.ndarray
    sources: np.ndarray
    issued_at: np.ndarray


@dataclass(eq=False)
class Workload:
    """A generated stream: every insert, then every lookup.

    The arrays are the stream; :attr:`events`, :attr:`home_asn` and
    :attr:`guids` are views derived from them.
    """

    config: WorkloadConfig
    arrays: LookupArrays
    #: Insert time of each GUID in ``arrays.guids`` (ascending).
    insert_times: np.ndarray

    @property
    def guids(self) -> List[GUID]:
        """All GUIDs, rank order (rank 1 = most popular)."""
        return self.arrays.guids

    @cached_property
    def home_asn(self) -> Dict[GUID, int]:
        """Each GUID's home AS, rank order."""
        return dict(zip(self.arrays.guids, self.arrays.local_asns.tolist()))

    @cached_property
    def events(self) -> List[WorkloadEvent]:
        """The stream as time-ordered events, for the per-event walks (the
        scalar resolver and the DES); built on first use."""
        a = self.arrays
        inserts = zip(a.guids, self.insert_times.tolist(), a.local_asns.tolist())
        lookups = zip(a.guid_idx.tolist(), a.issued_at.tolist(), a.sources.tolist())
        return [WorkloadEvent(EventKind.INSERT, t, g, asn) for g, t, asn in inserts] + [
            WorkloadEvent(EventKind.LOOKUP, t, a.guids[i], asn) for i, t, asn in lookups
        ]

    def locator_for(self, guid: GUID, table: GlobalPrefixTable) -> NetworkAddress:
        """The locator a host inserts: an address inside its home AS."""
        return table.representative_address(self.home_asn[guid])

    def apply_to_simulation(self, simulation, table: GlobalPrefixTable) -> None:
        """Schedule every event onto a
        :class:`~repro.sim.simulation.DMapSimulation`."""
        for event in self.events:
            if event.kind is EventKind.INSERT:
                locator = table.representative_address(event.source_asn)
                simulation.schedule_insert(
                    event.guid, [locator], event.source_asn, at=event.time_ms
                )
            else:
                simulation.schedule_lookup(
                    event.guid, event.source_asn, at=event.time_ms
                )

    def run_through_resolver(
        self,
        resolver,
        table: GlobalPrefixTable,
        failure_model: Optional[FailureModel] = None,
        max_retry_rounds: int = 20,
        attempt_counts: Optional[List[int]] = None,
    ) -> List[float]:
        """Execute the stream on an instant-mode
        :class:`~repro.core.resolver.DMapResolver`; returns lookup RTTs.

        This is the fast path for latency experiments — identical protocol
        arithmetic to the event simulation (cross-checked in tests), but
        without per-message event scheduling overhead.

        ``failure_model`` is passed to every lookup.  When every replica
        fails a lookup (possible under injected churn), the querier
        retries the whole replica set, carrying the time already spent —
        the §III-D.2 "keep checking" behaviour — up to
        ``max_retry_rounds`` rounds.

        Events run grouped by (phase, source AS) rather than in strict
        time order.  Instant-mode execution is order-independent within a
        phase (inserts all precede lookups, and lookups mutate nothing),
        so the RTT multiset is unchanged — but each source's routing row
        is computed once instead of being evicted and recomputed, which is
        what makes the paper-scale run (26k ASs, 10^6 lookups) tractable.

        ``attempt_counts``, when given, receives the number of replicas
        each lookup contacted across all its retry rounds, in the order
        of the returned RTTs.
        """
        # A stable sort of the events by (is lookup, source AS, time).
        a = self.arrays
        order = np.concatenate([
            np.lexsort((self.insert_times, a.local_asns)),
            len(a.guids) + np.lexsort((a.issued_at, a.sources)),
        ])
        events = [self.events[i] for i in order.tolist()]
        rtts: List[float] = []
        for event in events:
            if event.kind is EventKind.LOOKUP:
                carried_ms = 0.0
                contacted = 0
                for _round in range(max_retry_rounds):
                    try:
                        result = resolver.lookup(
                            event.guid,
                            event.source_asn,
                            failure_model=failure_model,
                            time=event.time_ms,
                        )
                        break
                    except LookupFailedError as exc:
                        carried_ms += exc.elapsed_ms
                        contacted += exc.attempts
                else:
                    raise WorkloadError(
                        f"lookup of {event.guid} kept failing for "
                        f"{max_retry_rounds} rounds"
                    )
                rtts.append(result.rtt_ms + carried_ms)
                if attempt_counts is not None:
                    attempt_counts.append(contacted + len(result.attempts))
            else:
                locator = table.representative_address(event.source_asn)
                resolver.insert(
                    event.guid, [locator], event.source_asn, time=event.time_ms
                )
        return rtts

    def lookup_arrays(self) -> LookupArrays:
        """The stream as :class:`LookupArrays` for the batched engine."""
        return self.arrays


class WorkloadGenerator:
    """Builds :class:`Workload` instances over a topology."""

    def __init__(self, topology: ASTopology, config: Optional[WorkloadConfig] = None):
        self.topology = topology
        self.config = config or WorkloadConfig()
        self.config.validate()

    def generate(self) -> Workload:
        """Draw the stream (deterministic in the seed)."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        sampler = SourceSampler(self.topology, rng)

        # Rank r GUID is "guid-r"; popularity rank == naming rank.  Rank r
        # is inserted from its home AS at the r-th smallest insert time.
        guids = [GUID.from_name(f"guid-{rank}") for rank in range(1, cfg.n_guids + 1)]
        homes = sampler.sample(cfg.n_guids)
        insert_times = np.sort(rng.uniform(0.0, cfg.insert_window_ms, cfg.n_guids))

        popularity = MandelbrotZipf(cfg.n_guids, cfg.alpha, cfg.q)
        ranks = popularity.sample_ranks(cfg.n_lookups, rng)
        sources = sampler.sample(cfg.n_lookups)
        start = cfg.insert_window_ms + cfg.gap_ms
        issued_at = np.sort(
            rng.uniform(start, start + cfg.lookup_window_ms, cfg.n_lookups)
        )
        # Every lookup is issued at or after the last insert, so the
        # stream is all inserts, then all lookups (each in time order).
        arrays = LookupArrays(guids, homes, ranks - 1, sources, issued_at)
        return Workload(cfg, arrays, insert_times)
