"""Replay one scenario through both execution paths and diff everything.

The analytic path drives a :class:`~repro.core.resolver.DMapResolver`
(churn via :mod:`repro.core.consistency`); the event path drives a
:class:`~repro.sim.simulation.DMapSimulation`.  Both receive independent
copies of the scenario's prefix table, the *shared* read-only router, the
same availability oracle and the same deterministic selection policy — so
every remaining difference in behaviour is a protocol divergence, not an
environment artifact.

Per-lookup outcomes are matched by issue time (unique per operation) and
compared field by field; RTTs are compared with a tolerance because the
DES accumulates the same latency terms in a different association order.
The final storage state and the two prefix tables complete the diff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bgp.table import GlobalPrefixTable
from ..core.consistency import handle_new_announcement, prepare_withdrawal
from ..core.guid import GUID
from ..core.resolver import DMapResolver
from ..errors import LookupFailedError
from ..fastpath import FastpathEngine
from ..obs.trace import CollectingTracer, QueryTrace
from ..sim.simulation import DMapSimulation
from .report import (
    KIND_FASTPATH_ATTEMPTS,
    KIND_FASTPATH_RTT,
    KIND_FASTPATH_SERVED_BY,
    KIND_FASTPATH_SUCCESS,
    KIND_FASTPATH_USED_LOCAL,
    KIND_FASTPATH_WRITE_RTT,
    KIND_LOOKUP_ATTEMPTS,
    KIND_LOOKUP_LOST,
    KIND_LOOKUP_RTT,
    KIND_LOOKUP_SERVED_BY,
    KIND_LOOKUP_SUCCESS,
    KIND_LOOKUP_USED_LOCAL,
    KIND_STORAGE,
    KIND_TABLE,
    KIND_WRITE_RTT,
    Mismatch,
)
from .scenarios import (
    OP_ANNOUNCE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    OP_WITHDRAW,
    Scenario,
)

#: RTT comparison tolerance: the two paths sum identical float terms in
#: different orders, so exact equality is too strict but anything beyond
#: accumulation noise is a real divergence.
_REL_TOL = 1e-9
_ABS_TOL = 1e-6

#: Mismatch kinds of the DES lane and the fastpath lane: one per compared
#: lookup field, plus a lookup the lane never recorded and a write RTT.
_SIM_KINDS = {
    "lost": KIND_LOOKUP_LOST,
    "success": KIND_LOOKUP_SUCCESS,
    "served_by": KIND_LOOKUP_SERVED_BY,
    "used_local": KIND_LOOKUP_USED_LOCAL,
    "attempts": KIND_LOOKUP_ATTEMPTS,
    "rtt_ms": KIND_LOOKUP_RTT,
    "write_rtt": KIND_WRITE_RTT,
}
_FASTPATH_KINDS = {
    "lost": KIND_FASTPATH_SUCCESS,
    "success": KIND_FASTPATH_SUCCESS,
    "served_by": KIND_FASTPATH_SERVED_BY,
    "used_local": KIND_FASTPATH_USED_LOCAL,
    "attempts": KIND_FASTPATH_ATTEMPTS,
    "rtt_ms": KIND_FASTPATH_RTT,
    "write_rtt": KIND_FASTPATH_WRITE_RTT,
}


@dataclass(frozen=True)
class LookupOutcome:
    """Normalized per-lookup observation from either path."""

    success: bool
    served_by: Optional[int]
    used_local: bool
    attempts: int
    rtt_ms: float


@dataclass
class PathResult:
    """Everything one execution path produced for the diff."""

    lookups: Dict[float, LookupOutcome]
    write_rtts: Dict[float, float]
    storage: Dict[int, frozenset]
    table: GlobalPrefixTable
    #: Per-lookup traces keyed by issue time; attached to divergence
    #: reports so a mismatch arrives with both sides' full provenance.
    traces: Dict[float, QueryTrace] = field(default_factory=dict)


@dataclass
class ScenarioDiff:
    """Outcome of diffing one scenario."""

    seed: int
    config_line: str
    lookups: int
    writes: int
    mismatches: Tuple[Mismatch, ...]
    fastpath_lookups: int = 0

    @property
    def clean(self) -> bool:
        return not self.mismatches


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


def _storage_snapshot(stores: Dict[int, object]) -> Dict[int, frozenset]:
    """Per-AS content sets.  Versions/timestamps are excluded on purpose:
    the resolver derives versions from surviving copies while the DES
    uses a source-side counter, and the two legitimately differ."""
    snapshot: Dict[int, frozenset] = {}
    for asn in sorted(stores):
        store = stores[asn]
        content = frozenset(
            (entry.guid.value, entry.locators) for entry in store
        )
        if content:
            snapshot[asn] = content
    return snapshot


def run_analytic(scenario: Scenario) -> PathResult:
    """Replay the trace through the instant-accounting resolver."""
    table = scenario.fresh_table()
    config = scenario.config
    tracer = CollectingTracer()
    resolver = DMapResolver(
        table,
        scenario.router,
        selection_policy=config.selection_policy,
        local_replica=config.local_replica,
        timeout_ms=config.timeout_ms,
        placer=scenario.make_placer(table),
        tracer=tracer,
    )
    lookups: Dict[float, LookupOutcome] = {}
    write_rtts: Dict[float, float] = {}
    for op in scenario.trace:
        if op.kind == OP_INSERT:
            result = resolver.insert(
                GUID(op.guid_value), op.locators, op.asn, time=op.at
            )
            write_rtts[op.at] = result.rtt_ms
        elif op.kind == OP_UPDATE:
            result = resolver.update(
                GUID(op.guid_value), op.locators, op.asn, time=op.at
            )
            write_rtts[op.at] = result.rtt_ms
        elif op.kind == OP_WITHDRAW:
            prepare_withdrawal(resolver, op.prefix)
        elif op.kind == OP_ANNOUNCE:
            handle_new_announcement(resolver, op.announcement, eager=False)
        elif op.kind == OP_LOOKUP:
            try:
                found = resolver.lookup(
                    GUID(op.guid_value),
                    op.asn,
                    failure_model=scenario.availability,
                    time=op.at,
                )
                lookups[op.at] = LookupOutcome(
                    success=True,
                    served_by=found.served_by,
                    used_local=found.used_local,
                    attempts=len(found.attempts),
                    rtt_ms=found.rtt_ms,
                )
            except LookupFailedError as failure:
                lookups[op.at] = LookupOutcome(
                    success=False,
                    served_by=None,
                    used_local=False,
                    attempts=failure.attempts,
                    rtt_ms=failure.elapsed_ms,
                )
    return PathResult(
        lookups=lookups,
        write_rtts=write_rtts,
        storage=_storage_snapshot(resolver.stores),
        table=table,
        traces={trace.issued_at: trace for trace in tracer.traces},
    )


def run_simulation(scenario: Scenario) -> PathResult:
    """Replay the trace through the discrete-event simulation."""
    table = scenario.fresh_table()
    config = scenario.config
    tracer = CollectingTracer()
    sim = DMapSimulation(
        scenario.topology,
        table,
        selection_policy=config.selection_policy,
        local_replica=config.local_replica,
        timeout_ms=config.timeout_ms,
        failure_model=scenario.availability,
        router=scenario.router,
        placer=scenario.make_placer(table),
        tracer=tracer,
    )
    for op in scenario.trace:
        if op.kind == OP_INSERT:
            sim.schedule_insert(GUID(op.guid_value), op.locators, op.asn, at=op.at)
        elif op.kind == OP_UPDATE:
            sim.schedule_update(GUID(op.guid_value), op.locators, op.asn, at=op.at)
        elif op.kind == OP_WITHDRAW:
            sim.schedule_withdrawal(op.prefix, at=op.at)
        elif op.kind == OP_ANNOUNCE:
            sim.schedule_announcement(op.announcement, at=op.at)
        elif op.kind == OP_LOOKUP:
            sim.schedule_lookup(GUID(op.guid_value), op.asn, at=op.at)
    sim.run()

    lookups: Dict[float, LookupOutcome] = {}
    for record in sim.metrics.records + sim.metrics.failed:
        lookups[record.issued_at] = LookupOutcome(
            success=record.success,
            served_by=record.served_by,
            used_local=record.used_local,
            attempts=record.attempts,
            rtt_ms=record.rtt_ms,
        )
    write_rtts = {
        record.issued_at: record.rtt_ms for record in sim.insert_records
    }
    stores = {asn: node.store for asn, node in sim.nodes.items()}
    return PathResult(
        lookups=lookups,
        write_rtts=write_rtts,
        storage=_storage_snapshot(stores),
        table=table,
        traces={trace.issued_at: trace for trace in tracer.traces},
    )


def _table_signature(table: GlobalPrefixTable) -> Tuple[Tuple[int, int, int], ...]:
    return tuple(
        sorted(
            (ann.prefix.base, ann.prefix.length, ann.asn) for ann in iter(table)
        )
    )


def _entry_repr(item: Tuple[int, tuple]) -> str:
    guid_value, locators = item
    rendered = ",".join(str(loc) for loc in locators)
    return f"{guid_value:#x}@[{rendered}]"


def _diff_storage(
    seed: int, analytic: PathResult, simulated: PathResult
) -> List[Mismatch]:
    mismatches: List[Mismatch] = []
    for asn in sorted(set(analytic.storage) | set(simulated.storage)):
        ours = analytic.storage.get(asn, frozenset())
        theirs = simulated.storage.get(asn, frozenset())
        if ours == theirs:
            continue
        only_analytic = sorted(ours - theirs)
        only_sim = sorted(theirs - ours)
        mismatches.append(
            Mismatch(
                seed,
                KIND_STORAGE,
                subject=f"as={asn}",
                analytic=";".join(_entry_repr(e) for e in only_analytic) or "-",
                simulated=";".join(_entry_repr(e) for e in only_sim) or "-",
                detail=f"{len(ours)} vs {len(theirs)} entries",
            )
        )
        if len(mismatches) >= 8:
            break
    return mismatches


def _trace_pair(
    ours: Optional[QueryTrace], theirs: Optional[QueryTrace]
) -> str:
    """Both sides' compact provenance, for a divergence bundle's detail."""
    if ours is None and theirs is None:
        return ""
    left = ours.compact() if ours is not None else "-"
    right = theirs.compact() if theirs is not None else "-"
    return f"ours[{left}] theirs[{right}]"


def _diff_lookup(
    seed: int,
    subject: str,
    ours: LookupOutcome,
    theirs: LookupOutcome,
    kinds: Dict[str, str],
    trace_detail: str,
) -> List[Mismatch]:
    mismatches: List[Mismatch] = []
    if ours.success != theirs.success:
        mismatches.append(
            Mismatch(
                seed,
                kinds["success"],
                subject,
                str(ours.success),
                str(theirs.success),
                detail=trace_detail,
            )
        )
        return mismatches  # dependent fields are meaningless on disagreement
    if ours.served_by != theirs.served_by:
        mismatches.append(
            Mismatch(
                seed,
                kinds["served_by"],
                subject,
                str(ours.served_by),
                str(theirs.served_by),
                detail=trace_detail,
            )
        )
    if ours.used_local != theirs.used_local:
        mismatches.append(
            Mismatch(
                seed,
                kinds["used_local"],
                subject,
                str(ours.used_local),
                str(theirs.used_local),
                detail=trace_detail,
            )
        )
    if ours.attempts != theirs.attempts:
        mismatches.append(
            Mismatch(
                seed,
                kinds["attempts"],
                subject,
                str(ours.attempts),
                str(theirs.attempts),
                detail=trace_detail,
            )
        )
    if not _close(ours.rtt_ms, theirs.rtt_ms):
        mismatches.append(
            Mismatch(
                seed,
                kinds["rtt_ms"],
                subject,
                f"{ours.rtt_ms:.6f}",
                f"{theirs.rtt_ms:.6f}",
                detail=trace_detail,
            )
        )
    return mismatches


def fastpath_supported(scenario: Scenario) -> bool:
    """Whether the batched engine can replay this scenario exactly.

    The fastpath lane models the *converged, table-frozen* regime: BGP
    churn mutates the prefix table mid-trace, which needs the scalar
    oracle.
    """
    return not scenario.config.with_churn


def run_fastpath(
    scenario: Scenario,
) -> Tuple[
    Dict[float, LookupOutcome], Dict[float, float], Dict[float, QueryTrace]
]:
    """Replay a (no-churn) trace through the batched fastpath engine.

    Returns per-lookup outcomes, per-write RTTs, and per-lookup traces
    keyed by issue time, shaped exactly like the analytic
    :class:`PathResult` fields so the same comparison code applies.
    """
    table = scenario.fresh_table()
    config = scenario.config
    tracer = CollectingTracer()
    engine = FastpathEngine(
        table,
        scenario.router,
        selection_policy=config.selection_policy,
        local_replica=config.local_replica,
        timeout_ms=config.timeout_ms,
        placer=scenario.make_placer(table),
        tracer=tracer,
    )
    write_order: Dict[int, int] = {}
    local_asn: Dict[int, int] = {}
    write_ops: List = []
    lookup_ops: List = []
    for op in scenario.trace:
        if op.kind in (OP_INSERT, OP_UPDATE):
            write_order.setdefault(op.guid_value, len(write_order))
            local_asn[op.guid_value] = op.asn
            write_ops.append(op)
        elif op.kind == OP_LOOKUP:
            lookup_ops.append(op)
    batch = engine.index_guids(
        [GUID(value) for value in write_order],
        [local_asn[value] for value in write_order],
    )
    w_rtts = engine.write_rtts(
        batch,
        np.asarray([write_order[op.guid_value] for op in write_ops], dtype=np.int64),
        np.asarray([op.asn for op in write_ops], dtype=np.int64),
    )
    write_rtts = {op.at: float(rtt) for op, rtt in zip(write_ops, w_rtts)}
    lookups: Dict[float, LookupOutcome] = {}
    if lookup_ops:
        result = engine.lookup_batch(
            batch,
            np.asarray(
                [write_order[op.guid_value] for op in lookup_ops], dtype=np.int64
            ),
            np.asarray([op.asn for op in lookup_ops], dtype=np.int64),
            failure_model=scenario.availability,
            issued_at=np.asarray([op.at for op in lookup_ops], dtype=np.float64),
        )
        for i, op in enumerate(lookup_ops):
            success = bool(result.success[i])
            lookups[op.at] = LookupOutcome(
                success=success,
                served_by=int(result.served_by[i]) if success else None,
                used_local=bool(result.used_local[i]),
                attempts=int(result.attempts[i]),
                rtt_ms=float(result.rtt_ms[i]),
            )
    return (
        lookups,
        write_rtts,
        {trace.issued_at: trace for trace in tracer.traces},
    )


def _diff_lane(
    seed: int,
    analytic: PathResult,
    lookups: Dict[float, LookupOutcome],
    write_rtts: Dict[float, float],
    traces: Dict[float, QueryTrace],
    ops_by_time: Dict[float, object],
    kinds: Dict[str, str],
) -> List[Mismatch]:
    """Every lookup and write of one lane against the analytic oracle,
    tagged with the lane's mismatch ``kinds``."""
    mismatches: List[Mismatch] = []
    for at in sorted(analytic.lookups):
        op = ops_by_time[at]
        subject = f"guid={op.guid_value:#x} querier={op.asn} t={at:g}"
        ours = analytic.lookups[at]
        theirs = lookups.get(at)
        if theirs is None:
            mismatches.append(
                Mismatch(
                    seed,
                    kinds["lost"],
                    subject,
                    analytic=(
                        f"success={ours.success} rtt={ours.rtt_ms:.3f} "
                        f"attempts={ours.attempts}"
                    ),
                    simulated="no record (lookup never completed)",
                    detail=_trace_pair(analytic.traces.get(at), None),
                )
            )
            continue
        mismatches.extend(
            _diff_lookup(
                seed,
                subject,
                ours,
                theirs,
                kinds,
                _trace_pair(analytic.traces.get(at), traces.get(at)),
            )
        )
    for at in sorted(analytic.write_rtts):
        op = ops_by_time[at]
        subject = f"guid={op.guid_value:#x} source={op.asn} t={at:g}"
        ours_rtt = analytic.write_rtts[at]
        theirs_rtt = write_rtts.get(at)
        if theirs_rtt is None or not _close(ours_rtt, theirs_rtt):
            mismatches.append(
                Mismatch(
                    seed,
                    kinds["write_rtt"],
                    subject,
                    f"{ours_rtt:.6f}",
                    "no record (write never completed)"
                    if theirs_rtt is None
                    else f"{theirs_rtt:.6f}",
                )
            )
    return mismatches


def diff_scenario(scenario: Scenario, fastpath: bool = True) -> ScenarioDiff:
    """Run both paths on ``scenario`` and return the structured diff.

    ``fastpath`` additionally replays supported scenarios (no churn)
    through the batched engine and diffs it against the analytic
    resolver — three-way validation.
    """
    seed = scenario.config.seed
    analytic = run_analytic(scenario)
    simulated = run_simulation(scenario)
    mismatches: List[Mismatch] = []

    ops_by_time = {op.at: op for op in scenario.trace}
    mismatches.extend(
        _diff_lane(
            seed, analytic, simulated.lookups, simulated.write_rtts,
            simulated.traces, ops_by_time, _SIM_KINDS,
        )
    )

    if _table_signature(analytic.table) != _table_signature(simulated.table):
        mismatches.append(
            Mismatch(
                seed,
                KIND_TABLE,
                subject="prefix-table",
                analytic=f"{len(analytic.table)} announcements",
                simulated=f"{len(simulated.table)} announcements",
                detail="tables diverged under the identical churn schedule",
            )
        )

    mismatches.extend(_diff_storage(seed, analytic, simulated))

    fastpath_lookups = 0
    if fastpath and fastpath_supported(scenario):
        fp_lookups, fp_writes, fp_traces = run_fastpath(scenario)
        mismatches.extend(
            _diff_lane(
                seed, analytic, fp_lookups, fp_writes, fp_traces,
                ops_by_time, _FASTPATH_KINDS,
            )
        )
        fastpath_lookups = len(fp_lookups)

    return ScenarioDiff(
        seed=seed,
        config_line=scenario.config.describe(),
        lookups=scenario.n_lookup_ops,
        writes=scenario.n_write_ops,
        mismatches=tuple(mismatches),
        fastpath_lookups=fastpath_lookups,
    )
