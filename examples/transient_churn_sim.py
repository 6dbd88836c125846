#!/usr/bin/env python
"""Transient effects of BGP updates, in virtual time (§VII future work).

The paper's Fig. 5 models churn statically (a per-lookup failure rate).
This example uses the discrete-event engine to watch a *live* prefix flap:

* t = 0 s     hosts insert their mappings;
* t = 60 s    a replica-hosting prefix is withdrawn — the withdrawing AS
              ships affected mappings to their new deputy ASs (§III-D.1);
* t = 120 s   the prefix is re-announced — mappings migrate back lazily,
              pulled over by the first query that misses;
* throughout  a probe query stream measures the response time of one
              affected GUID, exposing the transient windows.

Run: ``python examples/transient_churn_sim.py``
"""

from __future__ import annotations

import numpy as np

from repro.bgp import AllocationConfig, Announcement, generate_global_prefix_table
from repro.core import GUID
from repro.sim import DMapSimulation
from repro.topology import Router, generate_internet_topology, small_scale_config


def main() -> None:
    print("=== live prefix flap inside the event simulation ===\n")

    topology = generate_internet_topology(small_scale_config(n_as=300), seed=8)
    table = generate_global_prefix_table(
        topology.asns(), AllocationConfig(prefixes_per_as=6), seed=8
    )
    router = Router(topology)
    sim = DMapSimulation(topology, table, k=5, router=router)
    rng = np.random.default_rng(2)
    asns = topology.asns()

    # Populate hosts.
    guids = []
    for i in range(60):
        guid = GUID.from_name(f"host-{i}")
        home = int(rng.choice(asns))
        sim.schedule_insert(guid, [table.representative_address(home)], home, at=0.0)
        guids.append(guid)
    sim.run(until=10_000.0)  # let inserts settle

    # Pick a GUID with a replica hosted inside some announced prefix.
    target_guid = target_prefix = None
    for guid in guids:
        for res in sim.placer.resolve_all(guid):
            for prefix in table.prefixes_of(res.asn):
                if prefix.contains(res.address):
                    target_guid, target_prefix = guid, prefix
                    break
            if target_prefix:
                break
        if target_prefix:
            break
    owner = table.resolve(target_prefix.base).asn
    print(f"watching {target_guid}")
    print(f"flapping prefix {target_prefix} (AS{owner})\n")

    # Schedule the flap and a probe stream from a querier whose *best*
    # replica is the one being flapped — that querier actually feels the
    # transient (others silently use their own closest replica).
    sim.schedule_withdrawal(target_prefix, at=60_000.0)
    sim.schedule_announcement(Announcement(target_prefix, owner), at=120_000.0)
    candidates = sim.placer.hosting_asns(target_guid)
    querier = None
    for asn in (int(a) for a in rng.permutation(asns)):
        if sim.selector.order_candidates(asn, candidates)[0] == owner:
            querier = asn
            break
    assert querier is not None, "no AS prefers the flapped replica"
    probe_times = np.arange(15_000.0, 200_000.0, 5_000.0)
    for at in probe_times:
        sim.schedule_lookup(target_guid, querier, at=float(at))
    sim.run()

    print(f"probe stream from AS{querier} (5 s apart):")
    print("   t [s]   rtt [ms]  attempts  note")
    for record in sorted(sim.metrics.records, key=lambda r: r.issued_at):
        note = ""
        if 60_000.0 <= record.issued_at < 120_000.0:
            note = "withdrawn window"
        elif record.issued_at >= 120_000.0:
            note = "re-announced"
        print(
            f"  {record.issued_at/1000:6.0f}   {record.rtt_ms:8.1f}  "
            f"{record.attempts:8d}  {note}"
        )

    print(f"\nprotocol migrations executed: {sim.migrations}")
    print(f"failed queries: {len(sim.metrics.failed)} (replication + migration "
          "keep the GUID resolvable through the whole flap)")


if __name__ == "__main__":
    main()
