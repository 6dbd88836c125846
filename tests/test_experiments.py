"""Shape tests for the experiment drivers — the paper's qualitative claims.

These run the full experiment code paths on a tiny substrate, checking
the *shapes* the paper reports rather than absolute milliseconds.  The
shapes that hold only at real scale are asserted on the committed
reports under ``results/``, which the nightly CI regenerates byte for
byte.
"""

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.cache import CachingResolver
from repro.core.guid import GUID
from repro.core.resolver import DMapResolver
from repro.experiments import __main__ as cli
from repro.experiments.baselines_compare import run_baseline_comparison
from repro.experiments.common import Environment, SCALES, Scale, resolve_scale
from repro.experiments.fig4_response_time import run_fig4
from repro.experiments.fig5_churn import run_fig5
from repro.experiments.fig6_load import run_fig6
from repro.experiments.fig7_analytical import run_fig7
from repro.experiments.rehash_probe import run_rehash_probe
from repro.experiments.storage_overhead import run_storage_overhead
from repro.experiments.table1_stats import PAPER_TABLE1, run_table1
from repro.errors import ConfigurationError
from repro.hashing.asnum_placer import ASNumberPlacer, WeightedASPlacer
from repro.topology.routing import Router
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    scale = Scale("tiny", 150, 400, 3000, 5.0, 150_000)
    import os

    os.environ.setdefault(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache"))
    )
    return Environment(scale, seed=0)


@pytest.fixture(scope="module")
def tiny_workload():
    return WorkloadConfig(n_guids=400, n_lookups=3000, seed=0)


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"small", "medium", "paper"}
        assert resolve_scale("paper").n_as == 26_424

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_scale("galactic")


class TestFig4Shape:
    @pytest.fixture(scope="class")
    def result(self, env, tiny_workload):
        return run_fig4(environment=env, workload_override=tiny_workload)

    def test_all_k_values_present(self, result):
        assert set(result.rtts_by_k) == {1, 3, 5}
        for rtts in result.rtts_by_k.values():
            assert len(rtts) == 3000

    def test_replicas_shift_cdf_left(self, result):
        # More replicas → better latency at every reported percentile.
        s = result.summaries()
        assert s[1].median > s[3].median > s[5].median * 0.999
        assert s[1].p95 > s[5].p95
        assert s[1].mean > s[5].mean

    def test_k1_to_k5_tail_improves_clearly(self, result):
        # Paper: 172.8 → 86.1 ms (factor ~2) at 26k ASs.  The gain shrinks
        # with graph size (shorter paths → less replica diversity), so only
        # a clear improvement is asserted, here and on the committed
        # medium and paper reports (TestCommittedShapes).
        s = result.summaries()
        ratio = s[1].p95 / s[5].p95
        assert 1.1 < ratio < 3.5

    def test_render_contains_table(self, result):
        text = result.render()
        assert "K=1" in text and "K=5" in text
        assert "95th" in text

    def test_simulation_path_matches_instant(self, env):
        tiny = WorkloadConfig(n_guids=60, n_lookups=300, seed=1)
        instant = run_fig4(
            environment=env, workload_override=tiny, k_values=(3,)
        )
        simulated = run_fig4(
            environment=env,
            workload_override=tiny,
            k_values=(3,),
            use_simulation=True,
        )
        np.testing.assert_allclose(
            np.sort(instant.rtts_by_k[3]),
            np.sort(simulated.rtts_by_k[3]),
            rtol=1e-9,
        )

    def test_local_replica_ablation_helps(self, env, tiny_workload):
        with_local = run_fig4(
            environment=env, workload_override=tiny_workload, k_values=(5,)
        )
        without = run_fig4(
            environment=env,
            workload_override=tiny_workload,
            k_values=(5,),
            local_replica=False,
        )
        assert (
            with_local.rtts_by_k[5].mean() <= without.rtts_by_k[5].mean() + 1e-9
        )

    def test_hop_policy_slightly_worse(self, env, tiny_workload):
        # §IV-B.2a: least-hop-count gives "similar results albeit with
        # marginally increased latencies".
        latency = run_fig4(
            environment=env, workload_override=tiny_workload, k_values=(5,)
        )
        hops = run_fig4(
            environment=env,
            workload_override=tiny_workload,
            k_values=(5,),
            selection_policy="hops",
        )
        assert hops.rtts_by_k[5].mean() >= latency.rtts_by_k[5].mean() - 1e-9
        assert hops.rtts_by_k[5].mean() < 2 * latency.rtts_by_k[5].mean()


class TestFig4FastpathSweep:
    """The fastpath runs the whole K sweep in one pass and asks the
    router for (source, host) distances: with a routing cache far smaller
    than the source count, it computes each planned row once, derives the
    rest from neighbour rows, and never touches the LRU."""

    K_VALUES = (1, 3, 5)
    WORKLOAD = WorkloadConfig(n_guids=80, n_lookups=400, seed=5)

    def _run(self, env, engine, trace_path=None):
        small = copy.copy(env)
        small.router = Router(env.topology, cache_size=8)
        result = run_fig4(
            environment=small,
            workload_override=self.WORKLOAD,
            k_values=self.K_VALUES,
            engine=engine,
            trace_path=trace_path,
        )
        return result, small.router

    def test_report_matches_scalar(self, env):
        scalar, _ = self._run(env, "scalar")
        fast, _ = self._run(env, "fastpath")
        assert fast.render() == scalar.render()
        for k in self.K_VALUES:
            # The fastpath walks lookups grouped by source, not in event order.
            assert np.array_equal(
                np.sort(fast.rtts_by_k[k]), np.sort(scalar.rtts_by_k[k])
            )

    def test_one_row_per_source(self, env):
        _, router = self._run(env, "fastpath")
        workload = WorkloadGenerator(env.topology, self.WORKLOAD).generate()
        sources = set(workload.lookup_arrays().sources.tolist())
        assert len(sources) > router.cache_size
        exact, derived = router.plan_rows(router.indices_of(np.array(sorted(sources))))
        stats = router.cache_stats()
        assert stats["derived_rows"] == len(derived)
        assert router.dijkstra_runs == len(exact) + stats["fallback_rows"]
        assert router.dijkstra_runs < len(sources)
        assert router.evictions == 0

    def test_builds_no_event_objects(self, env, monkeypatch):
        # The fastpath reads the workload's arrays; only the per-event
        # walks (here the scalar oracle) build the events view.
        import repro.workload.generator as generator

        def no_events(*args, **kwargs):
            raise AssertionError("built a WorkloadEvent")

        monkeypatch.setattr(generator, "WorkloadEvent", no_events)
        fast, _ = self._run(env, "fastpath")
        assert sorted(fast.rtts_by_k) == list(self.K_VALUES)
        with pytest.raises(AssertionError, match="WorkloadEvent"):
            self._run(env, "scalar")

    def test_traces_byte_identical_to_scalar(self, env, tmp_path):
        paths = {}
        for engine in ("scalar", "fastpath"):
            paths[engine] = tmp_path / f"{engine}.jsonl"
            self._run(env, engine, trace_path=str(paths[engine]))
        scalar = paths["scalar"].read_bytes()
        assert scalar
        assert paths["fastpath"].read_bytes() == scalar
        manifest = tmp_path / "fastpath.jsonl.manifest.json"
        phases = json.loads(manifest.read_text())["phases_s"]
        assert set(phases) == {"workload", "placement", "lookups", "export"}

    def test_manifest_records_substrate(self, env, tmp_path):
        trace = tmp_path / "fastpath.jsonl"
        self._run(env, "fastpath", trace_path=str(trace))
        manifest = json.loads((tmp_path / "fastpath.jsonl.manifest.json").read_text())
        assert manifest["extra"]["substrate"] == {
            "key": env.substrate_key,
            "loaded": env.substrate_loaded,
            "setup_s": env.setup_s,
        }


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self, env):
        return run_table1(environment=env)

    def test_rows_and_render(self, result):
        assert set(result.measured) == {1, 5}
        text = result.render()
        assert "74.5" in text  # paper reference column
        assert "86.1" in text
        assert PAPER_TABLE1[5] == (49.1, 40.5, 86.1)

    def test_every_statistic_improves_with_k(self, result):
        k1, k5 = result.measured[1], result.measured[5]
        assert k1.mean > k5.mean
        assert k1.median >= k5.median * 0.999
        assert k1.p95 > k5.p95
        assert k1.p95 / k5.p95 > 1.15
        # Same regime as the paper: milliseconds to low hundreds of ms.
        for summary in (k1, k5):
            assert 5.0 < summary.median < 500.0
            assert summary.p95 < 2000.0


class TestFig5Shape:
    @pytest.fixture(scope="class")
    def result(self, env, tiny_workload):
        return run_fig5(environment=env, workload_override=tiny_workload)

    def test_rates_present(self, result):
        assert set(result.rtts_by_rate) == {0.0, 0.05, 0.10}

    def test_churn_hurts_tail_more_than_median(self, result):
        s = result.summaries()
        median_shift = s[0.10].median - s[0.0].median
        tail_shift = s[0.10].p95 - s[0.0].p95
        assert tail_shift > 2 * max(median_shift, 0.1)
        # Paper: +0.8 ms on the median at 5%.
        assert s[0.05].median - s[0.0].median < 0.25 * s[0.0].median

    def test_monotone_in_failure_rate(self, result):
        s = result.summaries()
        assert s[0.0].mean <= s[0.05].mean <= s[0.10].mean
        assert s[0.0].p95 <= s[0.05].p95 <= s[0.10].p95

    def test_render(self, result):
        assert "failure" in result.render()

    def test_attempts_are_measured(self, result):
        attempts = result.mean_attempts_by_rate
        # Without failures every lookup is served by its first replica.
        assert attempts[0.0] == 1.0
        assert 1.0 < attempts[0.05] < attempts[0.10]


class TestFig6Shape:
    @pytest.fixture(scope="class")
    def result(self, env):
        return run_fig6(environment=env, n_guids_list=(2_000, 20_000, 200_000))

    def test_median_approaches_one(self, result):
        medians = [float(np.median(v)) for v in result.nlr_by_n.values()]
        assert abs(medians[-1] - 1.0) < abs(medians[0] - 1.0) + 0.15
        assert 0.7 < medians[-1] < 1.4

    def test_cdf_sharpens_with_scale(self, result):
        # Fraction within [0.4, 1.6] grows with the GUID population.
        fractions = [
            float(((v >= 0.4) & (v <= 1.6)).mean()) for v in result.nlr_by_n.values()
        ]
        assert fractions[-1] > fractions[0]

    def test_spread_shrinks_with_scale(self, result):
        iqrs = [
            np.percentile(v, 75) - np.percentile(v, 25)
            for v in result.nlr_by_n.values()
        ]
        assert iqrs[-1] < iqrs[0]

    def test_deputy_fraction_small(self, result):
        for fraction in result.deputy_fraction_by_n.values():
            assert fraction < 0.005

    def test_render(self, result):
        assert "NLR" in result.render()


class TestFig6Engines:
    """Both fig6 engines are interchangeable, byte for byte."""

    def test_engines_render_identically(self, env):
        renders = {
            engine: run_fig6(
                environment=env, n_guids_list=(1_500,), engine=engine
            ).render()
            for engine in ("scalar", "fastpath")
        }
        assert renders["scalar"] == renders["fastpath"]

    def test_engine_arrays_identical(self, env):
        results = [
            run_fig6(environment=env, n_guids_list=(1_500,), engine=engine)
            for engine in ("scalar", "fastpath")
        ]
        for a, b in zip(results, results[1:]):
            np.testing.assert_array_equal(a.nlr_by_n[1_500], b.nlr_by_n[1_500])
            assert a.deputy_fraction_by_n == b.deputy_fraction_by_n

    def test_unknown_engine_rejected(self, env):
        with pytest.raises(ConfigurationError):
            run_fig6(environment=env, n_guids_list=(1_500,), engine="warp")


class TestFig7Shape:
    def test_curves_decreasing_and_ordered(self):
        result = run_fig7()
        curves = list(result.bounds_by_scenario.values())
        assert len(curves) == 3
        for curve in curves:
            assert (np.diff(curve) <= 1e-9).all()
        present, medium, long_term = curves
        assert (present > medium).all()
        assert (medium > long_term).all()

    def test_magnitude_band(self):
        for curve in run_fig7().bounds_by_scenario.values():
            assert curve.min() > 35.0 and curve.max() < 105.0

    def test_diminishing_returns(self):
        result = run_fig7()
        for name in result.bounds_by_scenario:
            assert result.diminishing_returns_ratio(name) < 0.5

    def test_render(self):
        assert "c0=10.6" in run_fig7().render()


class TestOverheadAndRehash:
    def test_overhead_numbers(self, env):
        result = run_storage_overhead(environment=env)
        assert result.analytic["entry_bits"] == 352
        assert result.analytic["update_traffic_gbps"] == pytest.approx(10.2, abs=0.1)
        assert result.analytic_paper_denominator_mbits == pytest.approx(173, rel=0.01)
        assert result.analytic["traffic_fraction_of_internet"] < 1e-6
        assert result.measured_mean_entry_bits == pytest.approx(352)
        assert result.measured_mean_entries_per_as > 0
        assert "173 Mbit" in result.render()

    def test_rehash_probe_matches_analytic(self, env):
        result = run_rehash_probe(environment=env, n_samples=50_000)
        assert result.announcement_ratio == pytest.approx(0.52, abs=0.02)
        for m, measured in result.deputy_fraction_by_m.items():
            analytic = result.analytic_by_m[m]
            assert measured == pytest.approx(analytic, abs=max(0.003, 0.3 * analytic))
        assert result.deputy_fraction_by_m[10] < 0.005
        # Hash attempts are geometric with mean 1 / ratio.
        assert result.mean_attempts == pytest.approx(
            1.0 / result.announcement_ratio, rel=0.05
        )
        assert "III-B" in result.render()


class TestBaselineComparison:
    def test_ordering_matches_paper_argument(self, env):
        result = run_baseline_comparison(
            environment=env,
            workload_override=WorkloadConfig(n_guids=200, n_lookups=1500, seed=2),
        )
        stats = result.by_name()
        dmap = stats["dmap (K=5)"]
        chord = stats["chord-dht"]
        onehop = stats["one-hop-dht"]
        # DMap beats everything on latency; Chord is the slowest resolver.
        for name, s in stats.items():
            if name != "dmap (K=5)":
                assert s.latency.mean > dmap.latency.mean
        assert chord.latency.mean > onehop.latency.mean
        assert chord.latency.mean > 3 * dmap.latency.mean
        assert chord.mean_overlay_hops > 2.0
        assert dmap.mean_overlay_hops == 1.0
        # DMap needs no maintenance traffic; the DHTs do.
        assert dmap.maintenance_bps == 0.0
        assert chord.maintenance_bps > 0.0
        assert onehop.maintenance_bps > 0.0
        assert "scheme" in result.render()


class TestConstantCalibration:
    def test_fit_from_own_simulation(self, env):
        """§V-C: the paper fit c0, c1 = 10.6, 8.3 ms from its simulation.
        Our substrate measures AS-level (not PoP-level) hops, so the
        per-hop cost is coarser; the fit must still be positive, of the
        right order, and meaningfully correlated."""
        from repro.experiments.fig7_analytical import calibrate_constants

        c0, c1, r = calibrate_constants(env, n_samples=800, k=1, seed=1)
        assert 3.0 < c0 < 80.0
        assert -80.0 < c1 < 80.0
        assert r > 0.25


class TestAblations:
    """The design-choice and §VII-variant ablations (DESIGN.md)."""

    def test_placement_scheme(self, env):
        # Address-space hashing (Algorithm 1) against direct AS-number
        # hashing (§VII): the same latency regime, opposite load profiles.
        from scipy.stats import spearmanr

        workload = WorkloadGenerator(
            env.topology, WorkloadConfig(n_guids=400, n_lookups=3000, seed=4)
        ).generate()

        def run(placer=None):
            # No local replica, so the stored load is placement alone.
            resolver = DMapResolver(
                env.table, env.router, k=5, placer=placer, local_replica=False
            )
            rtts = workload.run_through_resolver(resolver, env.table)
            return resolver, float(np.mean(rtts))

        by_address, address_mean = run()
        by_asn, asn_mean = run(ASNumberPlacer(env.topology.asns(), k=5))
        assert 0.6 < asn_mean / address_mean < 1.6

        spans = env.table.build_interval_index().effective_span_by_asn()
        asns = sorted(spans)

        def span_correlation(resolver):
            loads = [len(resolver.store_at(a)) for a in asns]
            return spearmanr([spans[a] for a in asns], loads)[0]

        def load_spread(resolver):
            counts = np.array([len(s) for s in resolver.stores.values() if len(s)])
            return counts.std() / counts.mean()

        address_rho = span_correlation(by_address)
        assert address_rho > 0.6, "address hashing must track announced space"
        assert span_correlation(by_asn) < address_rho - 0.3, "AS hashing must not"
        assert load_spread(by_asn) < load_spread(by_address)

    def test_economic_weighting(self, env):
        # §VII: replica share tracks the negotiated weight.  10% of ASs
        # pay for 5x, 30% for 1x and the rest for 0.2x.
        rng = np.random.default_rng(5)
        weights = {}
        for asn in env.topology.asns():
            draw = rng.random()
            weights[asn] = 5.0 if draw < 0.1 else (1.0 if draw < 0.4 else 0.2)
        placer = WeightedASPlacer(weights, k=5)
        counts = {}
        for i in range(4000):
            for asn in placer.hosting_asns(GUID.from_name(f"econ-{i}")):
                counts[asn] = counts.get(asn, 0) + 1

        def tier_mean(weight):
            return np.mean([counts.get(a, 0) for a, w in weights.items() if w == weight])

        assert tier_mean(5.0) > 10 * tier_mean(0.2)

    def test_in_network_caching(self, env):
        # §VII: longer TTLs buy hit rate and latency at the price of
        # staleness, for 150 hosts of which a third move every 6 minutes.
        rng = np.random.default_rng(6)
        asns = env.topology.asns()
        guids = [GUID.from_name(f"cache-h{i}") for i in range(150)]
        queriers = [int(a) for a in rng.choice(asns, size=20)]

        def locate(asn):
            return [env.table.representative_address(asn)], asn

        def run(ttl_ms):
            resolver = DMapResolver(env.table, env.router, k=5)
            for guid in guids:
                resolver.insert(guid, *locate(int(rng.choice(asns))))
            caching = CachingResolver(resolver, ttl_ms=ttl_ms)
            rtts = []
            for step in range(3000):
                caching.advance_time(1200.0)
                if step % 300 == 0 and step:
                    for guid in guids[::3]:
                        resolver.update(guid, *locate(int(rng.choice(asns))))
                guid = guids[int(rng.integers(0, len(guids)))]
                result, _cached = caching.lookup(guid, queriers[step % 20])
                rtts.append(result.rtt_ms)
            return caching.stats, float(np.mean(rtts))

        ttls = (0.0, 60_000.0, 600_000.0, 3.6e6)
        runs = {ttl: run(ttl) for ttl in ttls}
        hit_rates = [runs[ttl][0].hit_rate for ttl in ttls]
        assert hit_rates == sorted(hit_rates)
        assert hit_rates[0] == 0.0
        assert runs[3.6e6][1] < runs[0.0][1]
        assert runs[3.6e6][0].staleness_rate >= runs[60_000.0][0].staleness_rate


_RESULTS = Path(__file__).resolve().parents[1] / "results"


def _sections(name):
    """The ``=== experiment ===`` sections of a committed results file."""
    parts = re.split(r"^=== (\w+) ===\n", (_RESULTS / name).read_text(), flags=re.M)
    assert parts[0] == "", name
    return dict(zip(parts[1::2], parts[2::2]))


def _row(section, label):
    """The numbers of the table row whose first cell is ``label``."""
    for line in section.splitlines():
        cells = re.split(r"\s{2,}", line.strip())
        if cells[0] == label:
            return [float(cell.split()[0].rstrip("%")) for cell in cells[1:]]
    raise AssertionError(f"no {label!r} row")


class TestCommittedShapes:
    """Shapes that hold only at real scale, read off the committed reports."""

    def test_every_file_is_command_output(self):
        for path in sorted(_RESULTS.glob("*.txt")):
            sections = _sections(path.name)
            assert set(sections) <= set(cli.EXPERIMENTS), path.name
            assert all(text.endswith("\n\n") for text in sections.values())

    @pytest.mark.parametrize("name", ["medium_scale_all.txt", "paper_scale_fig4.txt"])
    def test_fig4_tail_contracts_and_survives(self, name):
        fig4 = _sections(name)["fig4"]
        k1, k5 = _row(fig4, "K=1"), _row(fig4, "K=5")  # mean, median, 95th
        assert 1.1 < k1[2] / k5[2] < 3.5
        # The K=5 maximum, the CDF plot's right end, is far beyond the median.
        k5_max = float(re.search(r"^x: \S+ \.\. (\S+)", fig4, re.M).group(1))
        assert k5_max > 4 * k5[1]

    def test_fig5_tail_moves_more_than_median(self):
        fig5 = _sections("medium_scale_all.txt")["fig5"]
        clean, heavy = _row(fig5, "0%"), _row(fig5, "10%")
        assert heavy[2] - clean[2] > 2 * max(heavy[1] - clean[1], 0.1)

    def test_chord_latency_over_three_times_dmap(self):
        baselines = _sections("medium_scale_all.txt")["baselines"]
        assert _row(baselines, "chord-dht")[0] > 3 * _row(baselines, "dmap (K=5)")[0]

    @pytest.mark.parametrize(
        "name", ["medium_scale_all.txt", "paper_scale_fig6_rehash.txt"]
    )
    def test_rehash_matches_geometric_model(self, name):
        rehash = _sections(name)["rehash"]
        for m in (1, 2, 4, 6, 8, 10):
            measured, analytic = (p / 100 for p in _row(rehash, str(m)))
            assert measured == pytest.approx(analytic, abs=max(0.003, 0.3 * analytic))


class TestCommandLine:
    """The CLI loop, with every experiment replaced by a stub."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def stub(name):
            def run(scale, **options):
                calls.append((name, scale, options))
                print(f"{name} report")

            return run

        monkeypatch.setattr(
            cli, "EXPERIMENTS", {name: stub(name) for name in cli.EXPERIMENTS}
        )
        return calls

    @pytest.mark.parametrize("names", [["all"], ["fig4", "fig6"], ["e1", "fig7", "e4"]])
    def test_engine_and_jobs_reach_fig4_and_fig6(self, calls, names):
        argv = names + ["--scale", "medium", "--engine", "fastpath", "--jobs", "2"]
        assert cli.main(argv) == 0
        options = {name: kwargs for name, _scale, kwargs in calls}
        assert options.pop("fig4") == {"engine": "fastpath", "n_jobs": 2}
        assert options.pop("fig6") == {"engine": "fastpath"}
        assert all(kwargs == {} for kwargs in options.values())
        assert {scale for _name, scale, _kwargs in calls} == {"medium"}

    def test_all_runs_every_experiment_in_order(self, calls):
        cli.main(["all"])
        assert [name for name, _scale, _kwargs in calls] == list(cli.EXPERIMENTS)

    def test_each_report_under_its_header(self, calls, capsys):
        cli.main(["fig6", "rehash"])
        out = capsys.readouterr().out
        assert out == "=== fig6 ===\nfig6 report\n\n=== rehash ===\nrehash report\n\n"

    def test_trace_reaches_fig4(self, calls):
        cli.main(["fig4", "--trace", "run.jsonl"])
        assert calls == [("fig4", None, {"trace_path": "run.jsonl"})]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig7", "--engine", "fastpath"],
            ["fig5", "table1", "--jobs", "2"],
            ["fig6", "--trace", "run.jsonl"],
            ["fig4", "fig5", "--trace", "run.jsonl"],
            ["all", "--trace", "run.jsonl"],
            ["fig4", "fig9"],
        ],
    )
    def test_rejected_before_any_run(self, calls, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert calls == []
