"""Per-query traces: what actually happened during one GUID lookup.

The paper's evaluation reasons about *provenance* of latency — which
replica answered, whether the §III-C local-replica race won, how many
failed attempts preceded success, whether the replica chain needed
IP-hole rehashes or the deputy fallback (Algorithm 1).  A
:class:`QueryTrace` captures all of that for a single lookup, in a form
every execution layer (analytic resolver, discrete-event simulation,
vectorized fastpath engine) can emit identically.

The :class:`Tracer` protocol is deliberately minimal: a ``record`` call
per completed lookup, guarded by an ``enabled`` flag, so the hot path
pays a single attribute check when tracing is off.  :data:`NULL_TRACER`
is the shared no-op default; :class:`CollectingTracer` buffers traces in
memory for tests and experiment drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, NamedTuple, Optional, Tuple

if TYPE_CHECKING:
    from ..hashing.rehash import HashResolution

#: Local-branch / attempt outcome strings of every engine (the resolver
#: re-exports them).
OUTCOME_HIT = "hit"
OUTCOME_MISSING = "missing"
OUTCOME_TIMEOUT = "timeout"

#: The only failure cause basic DMap knows: every replica (and the local
#: branch, when launched) failed to produce the mapping.
FAILURE_EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class PlacementRecord:
    """One replica chain of the GUID's placement (Algorithm 1).

    Attributes
    ----------
    asn:
        The hosting AS this chain resolved to.
    hash_attempts:
        Hash applications consumed: 1 for a direct longest-prefix match,
        more when the hashed address fell into IP holes and was rehashed.
    via_deputy:
        Whether the chain exhausted its M rehashes and fell back to the
        deputy AS (nearest announced prefix).
    """

    asn: int
    hash_attempts: int
    via_deputy: bool


class AttemptTrace(NamedTuple):
    """One contact with a global replica during the best-first walk.

    ``hash_index`` is the first replica-chain index (0..K-1) that placed
    this AS — duplicate chains landing in one AS are a single queryable
    host, so the walk contacts it once.  A named tuple: the scalar
    resolver builds one per attempt on its hot path.
    """

    asn: int
    hash_index: int
    outcome: str
    cost_ms: float


@dataclass(frozen=True)
class QueryTrace:
    """Full provenance of one lookup.

    Attributes
    ----------
    guid_value / source_asn / issued_at:
        Which GUID was queried, from which AS, at what virtual time.
    k:
        Replication factor in force.
    placement:
        The K replica chains, in hash-function order (before the
        latency/hops ordering the walk uses).
    attempts:
        Global-walk contacts in the order they were issued, including
        the final hit when the global branch won.
    local_launched:
        Whether the §III-C parallel local-replica request was sent (it
        is skipped when the source AS is itself a global candidate).
    local_outcome:
        ``"hit"`` / ``"missing"`` / ``"timeout"`` as observed, or
        ``None`` when the branch was not launched (or, in the DES, when
        the lookup completed before the local reply arrived).
    local_end_ms:
        When the local reply (or its timeout) landed, relative to
        ``issued_at``; ``None`` when the branch was not launched.
    used_local / served_by / rtt_ms / success:
        The verdict: who answered, in how long, and whether the local
        race won.  ``served_by`` is ``None`` on failure.
    failure_cause:
        ``None`` on success; :data:`FAILURE_EXHAUSTED` when every
        replica failed.
    """

    guid_value: int
    source_asn: int
    issued_at: float
    k: int
    placement: Tuple[PlacementRecord, ...]
    attempts: Tuple[AttemptTrace, ...]
    local_launched: bool
    local_outcome: Optional[str]
    local_end_ms: Optional[float]
    used_local: bool
    served_by: Optional[int]
    rtt_ms: float
    success: bool
    failure_cause: Optional[str]

    @property
    def failed_attempts(self) -> int:
        """Global contacts that did not produce the mapping."""
        return sum(1 for a in self.attempts if a.outcome != OUTCOME_HIT)

    @property
    def replica_set(self) -> Tuple[int, ...]:
        """Hosting ASNs in replica-chain order (with duplicates)."""
        return tuple(record.asn for record in self.placement)

    @property
    def rehash_depths(self) -> Tuple[int, ...]:
        """Hash applications per chain (Algorithm 1 depth)."""
        return tuple(record.hash_attempts for record in self.placement)

    @property
    def deputy_chains(self) -> int:
        """Chains that fell back to a deputy AS."""
        return sum(1 for record in self.placement if record.via_deputy)

    def compact(self) -> str:
        """One-line human rendering (divergence bundles, tail tables)."""
        walk = (
            " -> ".join(
                f"{a.outcome}@{a.asn}[h{a.hash_index}]({a.cost_ms:.3f})"
                for a in self.attempts
            )
            or "-"
        )
        if not self.local_launched:
            local = " local=off"
        elif self.local_end_ms is None:
            # DES only: the race ended while the local reply was still in
            # flight, so its outcome was never observed.
            local = " local=in-flight"
        else:
            local = f" local={self.local_outcome}@{self.local_end_ms:.3f}"
        verdict = (
            f"served_by={self.served_by} via={'local' if self.used_local else 'global'}"
            if self.success
            else f"FAILED({self.failure_cause})"
        )
        return (
            f"guid={self.guid_value:#x} src={self.source_asn} k={self.k} "
            f"t={self.issued_at:g} walk[{walk}]{local} "
            f"{verdict} rtt={self.rtt_ms:.3f}"
        )


def placement_records(
    resolutions: Iterable[HashResolution],
) -> Tuple[PlacementRecord, ...]:
    """A GUID's placement records, from the resolutions its placer derived."""
    return tuple(
        PlacementRecord(res.asn, res.attempts, res.via_deputy) for res in resolutions
    )


def hash_index_of(placement: Tuple[PlacementRecord, ...], asn: int) -> int:
    """First replica-chain index that placed ``asn`` (-1 if none did)."""
    for index, record in enumerate(placement):
        if record.asn == asn:
            return index
    return -1


class Tracer:
    """No-op tracer; the base of the tracing protocol.

    ``enabled`` is the hot-path guard: emitters check it once per lookup
    and skip all trace construction when it is false, so a disabled
    tracer costs one attribute read.
    """

    enabled: bool = False

    def record(self, trace: QueryTrace) -> None:
        """Accept one completed-lookup trace (discarded here)."""


#: Shared no-op default; safe to reuse across resolvers and engines.
NULL_TRACER = Tracer()


class CollectingTracer(Tracer):
    """Buffers traces in memory, in emission order."""

    enabled = True

    def __init__(self) -> None:
        self.traces: List[QueryTrace] = []

    def record(self, trace: QueryTrace) -> None:
        self.traces.append(trace)

    def extend(self, traces: Iterable[QueryTrace]) -> None:
        """Bulk-append (used when merging per-phase collections)."""
        self.traces.extend(traces)

    def __len__(self) -> int:
        return len(self.traces)

    def clear(self) -> None:
        self.traces.clear()
