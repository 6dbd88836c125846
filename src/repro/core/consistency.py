"""Consistency protocols for inconsistent GUID→NA mappings (§III-D).

Three sources of inconsistency and their remedies:

* **Prefix withdrawal** — mappings hosted under the withdrawn prefix would
  become unreachable *orphan mappings*.  Before withdrawing, the AS runs
  the IP-hole protocol against the post-withdrawal table to find the
  deputy AS each mapping will now hash to, transfers the entries, and
  deletes its copies (:func:`prepare_withdrawal`).  Subsequent queries hit
  the hole, follow the same protocol, and land on the deputy.
* **New announcement** — hashed values that used to fall in a hole (and
  therefore live at a deputy) now resolve to the announcing AS, which does
  not have them.  On the first missing query the announcing AS pulls the
  mapping over (:func:`repair_mapping` — "GUID migration message",
  a one-time cost).
* **Mobility** — a querier may read the pre-move binding in the window
  between the move and the update's completion.  The binding carries a
  version; :func:`is_stale` lets the querier detect and re-poll (§III-D.2).

All functions operate on a :class:`~repro.core.resolver.DMapResolver`,
whose ``replica_sets`` registry stands in for the per-router bookkeeping a
deployment would keep.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from ..bgp.prefix import Announcement, Prefix
from ..errors import PrefixTableError
from .guid import GUID, guid_like
from .mapping import MappingEntry
from .replication import ReplicaSet
from .resolver import DMapResolver


def prepare_withdrawal(resolver: DMapResolver, prefix: Prefix) -> int:
    """Withdraw ``prefix``, migrating affected mappings to their deputies.

    Implements the §III-D.1 withdrawal protocol.  Returns the number of
    replica copies migrated.  The resolver's prefix table is mutated (the
    prefix is withdrawn).

    Raises
    ------
    PrefixTableError
        If the prefix is not currently announced.
    """
    table = resolver.table
    if prefix not in table:
        raise PrefixTableError(f"prefix {prefix} is not announced")

    withdrawing_asn = table.withdraw(prefix).asn

    # Which replicas lived under the withdrawn block?  The withdrawing AS
    # scans its own store; the registry tells us which hash chain each
    # copy belongs to so it can be re-resolved independently.
    affected: List[Tuple[GUID, int]] = []
    store = resolver.store_at(withdrawing_asn)
    for entry in list(store):
        replica_set = resolver.replica_sets.get(entry.guid)
        if replica_set is None:
            continue
        for idx, res in enumerate(replica_set.global_replicas):
            if res.asn == withdrawing_asn and prefix.contains(res.address):
                affected.append((entry.guid, idx))

    migrated = 0
    for guid, idx in affected:
        migrated += _relocate_replica(resolver, guid, idx)
    return migrated


def handle_new_announcement(
    resolver: DMapResolver, announcement: Announcement, eager: bool = False
) -> int:
    """Announce a prefix; optionally migrate captured mappings eagerly.

    The paper's protocol is *lazy*: migration happens on the first missing
    query (:func:`repair_mapping`).  ``eager=True`` performs it immediately
    for all registered GUIDs — useful in tests and small deployments.
    Returns the number of replica copies migrated (0 when lazy).
    """
    resolver.table.announce(announcement)
    if not eager:
        return 0
    migrated = 0
    for guid in list(resolver.replica_sets):
        migrated += repair_mapping(resolver, guid)
    return migrated


def repair_mapping(resolver: DMapResolver, guid: Union[GUID, int, str]) -> int:
    """Re-derive ``guid``'s placement and move any mis-hosted replicas.

    This is the "GUID migration message" reaction (§III-D.1): when the
    table changed, a replica's correct host may differ from where the copy
    currently sits.  Each divergent replica is copied to its new host
    (using the freshest surviving version) and removed from the old one if
    no other replica or local copy keeps it there.

    Returns the number of replica copies moved.
    """
    guid = guid_like(guid)
    replica_set = resolver.replica_sets.get(guid)
    if replica_set is None:
        return 0
    moved = 0
    for idx, res in enumerate(replica_set.global_replicas):
        correct = resolver.placer.resolve_one(guid, idx)
        if correct.asn != res.asn or correct.address != res.address:
            moved += _relocate_replica(resolver, guid, idx)
    return moved


def _relocate_replica(resolver: DMapResolver, guid: GUID, index: int) -> int:
    """Move replica ``index`` of ``guid`` to its currently-correct host."""
    replica_set = resolver.replica_sets[guid]
    old = replica_set.global_replicas[index]
    new = resolver.placer.resolve_one(guid, index)
    if new.asn == old.asn and new.address == old.address:
        return 0

    entry = resolver.freshest_copy(replica_set)
    if entry is not None:
        resolver.store_at(new.asn).insert(entry)

    replicas = list(replica_set.global_replicas)
    replicas[index] = new
    updated = ReplicaSet(guid, tuple(replicas), replica_set.local_asn)
    resolver.replica_sets[guid] = updated

    # Drop the old copy only if nothing else keeps the GUID at that AS.
    if old.asn not in updated.all_asns:
        resolver.store_at(old.asn).delete(guid)
    return 1


def is_stale(entry: MappingEntry, observed_version: int) -> bool:
    """Whether a cached/fetched binding is older than one already seen.

    §III-D.2: a querier that reaches the host and fails should "mark the
    mapping as obsolete, and keep checking until it receives an updated
    one" — version counters make obsolescence detectable.
    """
    return entry.version < observed_version


def audit_placement(resolver: DMapResolver) -> Dict[str, int]:
    """Verify every registered replica is stored where the registry says.

    Returns counters: ``ok``, ``missing`` (registry says hosted, store
    disagrees), ``mislocated`` (current table maps the replica elsewhere).
    Tests use this to assert churn protocols restore full consistency.
    """
    ok = missing = mislocated = 0
    for guid, replica_set in resolver.replica_sets.items():
        for idx, res in enumerate(replica_set.global_replicas):
            if resolver.store_at(res.asn).get(guid) is None:
                missing += 1
                continue
            correct = resolver.placer.resolve_one(guid, idx)
            if correct.asn != res.asn:
                mislocated += 1
            else:
                ok += 1
    return {"ok": ok, "missing": missing, "mislocated": mislocated}
