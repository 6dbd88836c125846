"""Shape tests for the experiment drivers — the paper's qualitative claims.

These run the full experiment code paths on a tiny substrate, checking
the *shapes* the paper reports rather than absolute milliseconds.
"""

import copy
import json

import numpy as np
import pytest

from repro.experiments.baselines_compare import run_baseline_comparison
from repro.experiments.common import Environment, SCALES, Scale, resolve_scale
from repro.experiments.fig4_response_time import run_fig4
from repro.experiments.fig5_churn import run_fig5
from repro.experiments.fig6_load import run_fig6
from repro.experiments.fig7_analytical import run_fig7
from repro.experiments.rehash_probe import run_rehash_probe
from repro.experiments.storage_overhead import run_storage_overhead
from repro.experiments.table1_stats import run_table1
from repro.errors import ConfigurationError
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
        # with graph size (shorter paths → less replica diversity), so at
        # the 150-AS test scale only a clear improvement is asserted; the
        # medium/paper-scale benchmark checks the ~2x factor.
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
        assert hops.rtts_by_k[5].mean() < 3 * latency.rtts_by_k[5].mean()


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
    def test_rows_and_render(self, env):
        result = run_table1(environment=env)
        assert set(result.measured) == {1, 5}
        text = result.render()
        assert "74.5" in text  # paper reference column
        assert "86.1" in text


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
        assert tail_shift > median_shift
        assert tail_shift > 0

    def test_monotone_in_failure_rate(self, result):
        s = result.summaries()
        assert s[0.0].mean <= s[0.05].mean <= s[0.10].mean

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
        assert result.measured_mean_entry_bits == pytest.approx(352)
        assert "173 Mbit" in result.render()

    def test_rehash_probe_matches_analytic(self, env):
        result = run_rehash_probe(environment=env, n_samples=50_000)
        for m, measured in result.deputy_fraction_by_m.items():
            assert measured == pytest.approx(
                result.analytic_by_m[m], abs=max(0.01, 3 * result.analytic_by_m[m])
            )
        assert result.deputy_fraction_by_m[10] < 0.005
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
        assert chord.mean_overlay_hops > 2.0
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
