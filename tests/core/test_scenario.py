"""Tests for the declarative scenario engine (``core/scenario.py``)."""

import random
from dataclasses import replace

import pytest

from repro.core.campaign import (
    bandwidth_sweep,
    router_count_sweep,
    run_figure_suite,
    run_main_campaign,
    single_router_experiment,
)
from repro.core.blocking import blocking_curve
from repro.core.churn_analysis import ip_churn_figure, longevity_figure
from repro.core.geography import asn_figure, country_figure
from repro.core.population import daily_population_figure, unknown_ip_figure
from repro.core.reporting import render_campaign_summary
from repro.core.usability import client_netdb_from_dayview, usability_curve
from repro.core.scenario import (
    ANALYSES,
    FleetSpec,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
)
from repro.sim.exposure import ExposureEngine
from repro.sim.population import I2PPopulation, PopulationConfig


class TestRegistry:
    def test_at_least_seven_scenarios_registered(self):
        specs = list_scenarios()
        assert len(specs) >= 7
        names = {spec.name for spec in specs}
        assert {
            "main_campaign",
            "single_router",
            "bandwidth_sweep",
            "router_count_sweep",
            "figure_suite",
            "monitor_fraction_sweep",
            "country_blocking",
            "prefix-blocking",
            "reseed_denial",
            "floodfill-takedown",
            "reseed-outage",
            "lossy-network",
        } <= names

    def test_every_spec_has_a_description(self):
        for spec in list_scenarios():
            assert spec.description
            assert spec.days > 0

    def test_get_unknown_scenario_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="main_campaign"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("main_campaign")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(spec)

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ValueError, match="unknown analyses"):
            register_scenario(
                ScenarioSpec(name="bad-analyses", description="x", analyses=("wat",))
            )
        assert "bad-analyses" not in {s.name for s in list_scenarios()}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            register_scenario(
                ScenarioSpec(name="bad-kind", description="x", kind="teleport")
            )

    def test_analyses_registry_covers_paper_pipeline(self):
        assert {
            "population",
            "longevity",
            "ip_churn",
            "capacity",
            "geography",
            "blocking",
            "bridges",
            "summary",
        } <= set(ANALYSES)


class TestRunScenarioEquivalence:
    """Figures through run_scenario() are byte-identical to the bespoke
    entry points at a fixed seed."""

    def test_main_campaign_byte_identical(self):
        scenario = run_scenario("main_campaign", scale=0.02, seed=41, days=4)
        direct = run_main_campaign(days=4, scale=0.02, seed=41)

        assert scenario.campaign is not None
        assert render_campaign_summary(direct) == scenario.tables["campaign_summary"]
        for figure_fn, figure_id in (
            (daily_population_figure, "figure_05"),
            (unknown_ip_figure, "figure_06"),
            (longevity_figure, "figure_07"),
            (ip_churn_figure, "figure_08"),
            (country_figure, "figure_10"),
            (asn_figure, "figure_11"),
        ):
            assert (
                figure_fn(direct.log).to_text()
                == scenario.figures[figure_id].to_text()
            )
        assert blocking_curve(direct).to_text() == scenario.figures["figure_13"].to_text()

    def test_figure_suite_byte_identical(self):
        scenario = run_scenario("figure_suite", scale=0.02, seed=42, days=4)
        direct = run_figure_suite(days=4, scale=0.02, seed=42)
        assert scenario.suite is not None
        assert scenario.figures["figure_02"].to_text() == direct.figure2.to_text()
        assert scenario.figures["figure_03"].to_text() == direct.figure3.to_text()
        assert scenario.figures["figure_04"].to_text() == direct.figure4.to_text()
        assert scenario.suite.longevity == direct.longevity
        assert scenario.suite.ip_churn.as_dict() == direct.ip_churn.as_dict()

    def test_figure_suite_matches_calibration_figures(self):
        """The suite's Figures 2-4 are the Section 4 methodology experiments
        on one 10-day horizon, and it also reports the campaign summary."""
        scenario = run_scenario("figure_suite", scale=0.02, seed=44, days=10)
        engine = ExposureEngine()
        common = dict(scale=0.02, seed=44, engine=engine, horizon_days=10)
        figure4, _ = router_count_sweep(max_routers=40, **common)
        assert (
            scenario.figures["figure_02"].to_text()
            == single_router_experiment(**common).to_text()
        )
        assert (
            scenario.figures["figure_03"].to_text()
            == bandwidth_sweep(**common).to_text()
        )
        assert scenario.figures["figure_04"].to_text() == figure4.to_text()
        assert scenario.tables["campaign_summary"] == render_campaign_summary(
            scenario.suite.campaign
        )

    def test_usability_matches_the_figure14_experiment(self):
        """``run usability`` is Figure 14 over a private client netDb."""
        scale, seed = 0.02, 45
        scenario = run_scenario("usability", scale=scale, seed=seed)
        population = I2PPopulation(
            PopulationConfig(
                target_daily_population=max(500, int(30_500 * scale * 0.5)),
                horizon_days=2,
                seed=seed + 1,
            )
        )
        view = population.day_view(0)
        netdb = client_netdb_from_dayview(
            population,
            view,
            size=min(600, max(50, view.online_count // 2)),
            rng=random.Random(seed),
        )
        direct = usability_curve(
            netdb,
            blocking_rates=(0.0, 0.65, 0.71, 0.77, 0.83, 0.89, 0.95),
            fetches_per_rate=10,
            seed=seed,
        )
        assert scenario.figures["figure_14"].to_text() == direct.to_text()
        assert scenario.exposure_digest is None

    def test_shared_engine_reuses_population_across_scenarios(self):
        engine = ExposureEngine()
        run_scenario("main_campaign", scale=0.02, seed=43, days=4, engine=engine)
        assert engine.misses == 1
        run_scenario("country_blocking", scale=0.02, seed=43, days=4, engine=engine)
        # Same (population config, observation seed) key: no second build.
        assert engine.misses == 1
        assert engine.hits >= 1


class TestWhatIfScenarios:
    def test_monitor_fraction_coverage_is_monotone(self):
        result = run_scenario("monitor_fraction_sweep", scale=0.02, seed=44, days=3)
        figure = result.figures["scenario_monitor_fraction"]
        coverage = figure.get("coverage of daily population")
        assert coverage.is_monotonic_nondecreasing()
        values = coverage.ys
        assert 0.0 < values[0] < values[-1] <= 100.0
        assert result.summaries["monitor_fraction"]["fleet_size"] == 20

    def test_country_blocking_cumulative_curve(self):
        result = run_scenario("country_blocking", scale=0.02, seed=45, days=4)
        figure = result.figures["scenario_country_blocking"]
        cumulative = figure.get("cumulative block")
        assert cumulative.is_monotonic_nondecreasing()
        assert all(0.0 <= y <= 100.0 for y in cumulative.ys)
        single = figure.get("single country")
        # Cumulative dominates any single-country block.
        assert all(c >= s - 1e-9 for (_, c), (_, s) in zip(cumulative.points, single.points))
        assert result.summaries["country_blocking"]["countries"]

    def test_country_blocking_respects_explicit_countries(self):
        from dataclasses import replace

        spec = replace(
            get_scenario("country_blocking"),
            name="country-blocking-custom",
            params={"countries": ("US", "RU")},
        )
        result = run_scenario(spec, scale=0.02, seed=45, days=3)
        assert result.summaries["country_blocking"]["countries"] == ("US", "RU")
        assert len(result.figures["scenario_country_blocking"].get("single country").points) == 2

    def test_prefix_blocking_cumulative_curve(self):
        result = run_scenario("prefix-blocking", scale=0.02, seed=45, days=4)
        figure = result.figures["scenario_prefix_blocking"]
        cumulative = figure.get("cumulative block")
        assert cumulative.is_monotonic_nondecreasing()
        assert all(0.0 <= y <= 100.0 for y in cumulative.ys)
        single = figure.get("single censor")
        assert all(c >= s - 1e-9 for (_, c), (_, s) in zip(cumulative.points, single.points))
        summary = result.summaries["prefix_blocking"]
        assert summary["countries"]
        assert len(summary["prefix_counts"]) == len(summary["countries"])
        assert summary["total_prefixes"] == sum(summary["prefix_counts"].values())
        # The x axis counts blocked prefixes, not censors.
        assert cumulative.points[-1][0] == summary["total_prefixes"]

    def test_prefix_blocking_respects_explicit_countries(self):
        from dataclasses import replace

        spec = replace(
            get_scenario("prefix-blocking"),
            name="prefix-blocking-custom",
            params={"countries": ("US", "RU")},
        )
        result = run_scenario(spec, scale=0.02, seed=45, days=3)
        assert result.summaries["prefix_blocking"]["countries"] == ("US", "RU")
        assert len(result.figures["scenario_prefix_blocking"].get("single censor").points) == 2

    def test_reseed_denial_cohort(self):
        result = run_scenario("reseed_denial", scale=0.02, seed=46)
        figure = result.figures["ablation_reseed"]
        plain = figure.get("no manual reseed")
        assert plain.points[0][1] == 100.0  # nothing blocked: all bootstrap
        assert plain.points[-1][1] == 0.0  # everything blocked, no rescue
        summary = result.summaries["reseed_denial"]
        assert summary["fully_blocked_success_pct"] == 0.0
        assert summary["netdb_routerinfos"] > 0


class TestRunScenarioValidation:
    def test_days_override(self):
        result = run_scenario("bandwidth_sweep", scale=0.02, seed=47, days=2)
        assert result.spec.days == 2

    def test_zero_days_rejected(self):
        with pytest.raises(ValueError, match="^days must be positive$"):
            run_scenario("bandwidth_sweep", scale=0.02, seed=47, days=0)

    def test_figure_suite_respects_max_routers(self):
        spec = get_scenario("figure_suite")
        spec = replace(spec, params={**dict(spec.params), "max_routers": 4})
        result = run_scenario(spec, scale=0.01, seed=48, days=4)
        routers = {x for series in result.figures["figure_04"].series.values()
                   for x in series.xs}
        assert max(routers) == 4.0

    def test_usability_fetches_param(self):
        spec = replace(get_scenario("usability"), params={"fetches": 2})
        result = run_scenario(spec, scale=0.01, seed=49)
        assert "2 fetches per blocking rate" in result.figures["figure_14"].to_text()

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            run_scenario(12345)

    def test_fleet_spec_helpers(self):
        fleet = FleetSpec(floodfill=3, non_floodfill=2, shared_kbps=512.0)
        monitors = fleet.monitors()
        assert fleet.size == len(monitors) == 5
        assert {m.spec if hasattr(m, "spec") else m.name for m in monitors}

    def test_days_override_rejected_for_dayless_kinds(self):
        with pytest.raises(ValueError, match="no day horizon"):
            run_scenario("reseed_denial", scale=0.02, seed=46, days=30)

    def test_tiny_router_count_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            run_scenario("floodfill-takedown", router_count=1)


class TestFaultInjectionScenarios:
    def test_floodfill_takedown_curve_drops_and_recovers(self):
        result = run_scenario("floodfill-takedown", seed=2018, router_count=60)
        figure = result.figures["scenario_fault_injection"]
        success = figure.get("publish success ratio")
        summary = result.summaries["fault_injection"]
        # Healthy before the window, degraded inside, recovered after
        # (the spec's window is rounds 8-16 of 24).
        assert all(y == 1.0 for _, y in success.points[:8])
        assert summary["publish_success_final"] == 1.0
        assert summary["router_count"] == 60
        coverage = figure.get("netDb coverage")
        assert all(0.0 < y <= 1.0 for _, y in coverage.points)

    def test_fault_scenarios_are_reproducible(self):
        results = [
            run_scenario("lossy-network", seed=7, router_count=50) for _ in range(2)
        ]
        series = [
            r.figures["scenario_fault_injection"].get("publish success ratio").points
            for r in results
        ]
        assert series[0] == series[1]
        assert (
            results[0].summaries["fault_injection"]
            == results[1].summaries["fault_injection"]
        )

    def test_router_count_override_applies_to_fault_kind(self):
        result = run_scenario("lossy-network", seed=7, router_count=40)
        assert result.spec.router_count == 40
        assert result.summaries["fault_injection"]["router_count"] == 40
