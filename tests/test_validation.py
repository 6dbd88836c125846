"""Tier-1 coverage for the differential cross-validation harness.

The pinned seeds below each reproduced a *real* analytic-vs-DES
divergence before the corresponding fix landed in this repo; keeping
them here makes every one of those bugs a permanent regression test.
Reproduce any of them interactively with::

    python -m repro.validation --scenarios 1 --seed <seed>
"""

import json

import numpy as np
import pytest

from repro.bgp.interval_index import HOLE
from repro.validation import diff_scenario, generate_scenario
from repro.validation.__main__ import build_report, main
from repro.validation.differ import run_analytic
from repro.validation.report import (
    KIND_LOOKUP_LOST,
    KIND_STORAGE,
    Mismatch,
    ValidationReport,
)
from repro.validation.scenarios import OP_ANNOUNCE, OP_WITHDRAW

from .prefix_trie import PrefixTrie

#: Each seed reproduced a distinct divergence family before its fix:
#:   0 — a GUID Update left the stale local copy at the host's previous
#:       attachment AS (the DES processed updates as plain inserts)
#:   1 — local-vs-global race: the resolver raced the local branch even
#:       when the source AS was itself a global candidate, and broke
#:       ties toward the global reply (served_by / rtt / used_local)
#:   8 — a lookup issued from a dead AS never completed in the DES: the
#:       swallowed local request left the lookup pending forever
#:  13 — failed-lookup time ignored the local branch, and a replica
#:       that should host a mapping after an announcement never pulled
#:       it on the analytic path (lazy migration, §III-D.1)
#:  26 — attempt over-counting: the resolver kept charging global
#:       attempts after the local reply had already won the race
#:  60 — a local "GUID missing" reply landing at the instant the DES's
#:       local guard fired (querier intra-AS RTT above the floor) was
#:       taken for a global reply and cut the global walk short
REGRESSION_SEEDS = (0, 1, 8, 13, 26, 60)


class TestDifferentialRegression:
    @pytest.mark.parametrize("seed", REGRESSION_SEEDS)
    def test_pinned_divergence_seed_stays_clean(self, seed):
        diff = diff_scenario(generate_scenario(seed))
        assert diff.clean, "\n".join(m.render() for m in diff.mismatches)

    def test_smoke_consecutive_scenarios_agree(self):
        report = build_report(3, seed=200)
        assert report.clean, report.render()
        assert report.scenarios == 3
        assert report.lookups > 0
        assert report.writes > 0

    def test_cli_exit_code_and_output(self, capsys):
        assert main(["--scenarios", "1", "--seed", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["scenarios"] == 1


class TestScenarioGeneration:
    def test_generation_is_deterministic(self):
        first = generate_scenario(5)
        second = generate_scenario(5)
        assert first.config == second.config
        assert first.trace == second.trace

    def test_distinct_seeds_vary_the_trace(self):
        assert generate_scenario(3).trace != generate_scenario(4).trace

    def test_fresh_tables_are_independent(self):
        scenario = generate_scenario(0)
        one, two = scenario.fresh_table(), scenario.fresh_table()
        assert one is not two
        assert one is not scenario.base_table


class TestFinalTableLPM:
    """The table's LPM, its interval index and the reference trie agree
    on the prefix table a churn scenario leaves behind: at the edges
    (``base - 1``, ``base``, ``last``, ``last + 1``) of every announced,
    withdrawn and re-announced prefix, at every replica address, and at
    128 seeded uniform addresses."""

    @pytest.mark.parametrize("seed", (1, 2, 5, 7))
    def test_table_index_and_trie_agree(self, seed):
        scenario = generate_scenario(seed)
        assert scenario.config.with_churn
        table = run_analytic(scenario).table
        space = 1 << table.bits
        prefixes = [ann.prefix for ann in table]
        for op in scenario.trace:
            if op.kind == OP_WITHDRAW:
                prefixes.append(op.prefix)
            elif op.kind == OP_ANNOUNCE:
                prefixes.append(op.announcement.prefix)
        probes = {
            address
            for prefix in prefixes
            for address in (prefix.base - 1, prefix.base, prefix.last, prefix.last + 1)
            if 0 <= address < space
        }
        if scenario.config.placement == "address":
            placer = scenario.make_placer(table)
            for guid in scenario.guids:
                probes.update(int(res.address) for res in placer.resolve_all(guid))
        rng = np.random.default_rng(seed)
        probes.update(int(v) for v in rng.integers(0, space, size=128))

        index = table.build_interval_index()
        trie = PrefixTrie(table.bits)
        for ann in table:
            trie.insert(ann)
        for address in sorted(probes):
            via_trie = trie.longest_prefix_match(address)
            assert table.resolve(address) == via_trie, hex(address)
            expected = HOLE if via_trie is None else via_trie.asn
            assert index.lookup_one(address) == expected, hex(address)


class TestReport:
    def _mismatch(self, seed=3, kind=KIND_STORAGE):
        return Mismatch(
            seed=seed,
            kind=kind,
            subject="AS 7",
            analytic="a",
            simulated="b",
            detail="context",
        )

    def test_clean_flips_on_first_mismatch(self):
        report = ValidationReport()
        report.add_scenario("cfg", 4, 2, ())
        assert report.clean
        report.add_scenario("cfg2", 4, 2, (self._mismatch(),))
        assert not report.clean
        assert report.scenarios == 2
        assert report.lookups == 8

    def test_grouping_and_reproducer_seeds(self):
        report = ValidationReport()
        report.add_scenario(
            "cfg",
            1,
            1,
            (
                self._mismatch(seed=9, kind=KIND_LOOKUP_LOST),
                self._mismatch(seed=9, kind=KIND_STORAGE),
                self._mismatch(seed=4, kind=KIND_STORAGE),
            ),
        )
        grouped = report.by_kind()
        assert set(grouped) == {KIND_LOOKUP_LOST, KIND_STORAGE}
        assert len(grouped[KIND_STORAGE]) == 2
        assert report.reproducer_seeds() == [4, 9]

    def test_render_names_a_reproducer(self):
        report = ValidationReport()
        report.add_scenario("k=5 churn", 1, 1, (self._mismatch(seed=7),))
        rendered = report.render()
        assert "--seed 7" in rendered
        assert "k=5 churn" in rendered

    def test_as_dict_is_json_serializable(self):
        report = ValidationReport()
        report.add_scenario("cfg", 1, 1, (self._mismatch(),))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["clean"] is False
        assert payload["mismatches"][0]["kind"] == KIND_STORAGE
