"""Cross-provider equivalence (the PR 9 acceptance bar).

In the spirit of ``tests/sim/test_out_of_core.py``: with the default
:class:`SyntheticProvider`, every analysis must be byte-identical to the
historical registry-coupled path at a fixed seed; and a *swapped* provider
must change every downstream analysis consistently (the satellite fix for
``press_freedom_summary`` reaching into the registry's tables).
"""

import pytest

from repro.core import run_scenario
from repro.core.blocking import country_blocking_curve, prefix_blocking_curve
from repro.core.geography import press_freedom_summary, summarize_geography
from repro.core.reporting import render_figure
from repro.enrichment import (
    RangeDbProvider,
    RangeRow,
    SyntheticProvider,
    compile_range_db,
    ipv4_to_int,
    rows_from_registry,
    set_active_provider,
    use_provider,
)
from repro.sim.exposure import ExposureEngine
from repro.sim.geo import default_registry


@pytest.fixture(autouse=True)
def _clean_active_provider():
    set_active_provider(None)
    yield
    set_active_provider(None)


@pytest.fixture(scope="module")
def registry_range_db(tmp_path_factory):
    """A compiled range DB equivalent to the default registry."""
    path = tmp_path_factory.mktemp("geodb") / "registry.db"
    compile_range_db(rows_from_registry(default_registry()), path)
    return path


class TestDefaultPathIsByteIdentical:
    def test_press_freedom_summary_matches_registry_path(self, small_campaign):
        via_provider = press_freedom_summary(small_campaign.log)
        via_registry = press_freedom_summary(
            small_campaign.log, registry=default_registry()
        )
        assert via_provider == via_registry

    def test_geography_summary_matches_registry_path(self, small_campaign):
        assert summarize_geography(small_campaign.log) == summarize_geography(
            small_campaign.log, registry=default_registry()
        )

    def test_country_blocking_curve_matches_registry_path(self, small_campaign):
        countries = ("US", "RU", "GB")
        via_provider = country_blocking_curve(small_campaign, countries)
        via_registry = country_blocking_curve(
            small_campaign, countries, registry=default_registry()
        )
        assert render_figure(via_provider, ".3f") == render_figure(
            via_registry, ".3f"
        )

    def test_explicit_synthetic_provider_is_a_no_op(self, small_campaign):
        baseline = press_freedom_summary(small_campaign.log)
        with use_provider(SyntheticProvider(default_registry())):
            assert press_freedom_summary(small_campaign.log) == baseline


class TestRangeDbEquivalence:
    def test_registry_equivalent_db_reproduces_analyses(
        self, small_campaign, registry_range_db
    ):
        baseline_press = press_freedom_summary(small_campaign.log)
        baseline_curve = render_figure(
            prefix_blocking_curve(small_campaign, ("US", "CN", "RU")), ".3f"
        )
        with use_provider(RangeDbProvider(registry_range_db)):
            assert press_freedom_summary(small_campaign.log) == baseline_press
            assert (
                render_figure(
                    prefix_blocking_curve(small_campaign, ("US", "CN", "RU")), ".3f"
                )
                == baseline_curve
            )

    def test_prefix_blocking_scenario_reproducible_at_fixed_seed(self, tmp_path):
        runs = [
            run_scenario(
                "prefix-blocking",
                scale=0.02,
                seed=41,
                days=4,
                engine=ExposureEngine(cache_dir=tmp_path / f"cache{i}"),
            )
            for i in range(2)
        ]
        first, second = (
            render_figure(run.figures["scenario_prefix_blocking"], ".6f")
            for run in runs
        )
        assert first == second
        assert runs[0].summaries["prefix_blocking"] == runs[1].summaries[
            "prefix_blocking"
        ]


class TestSwappedProviderChangesAnalyses:
    def test_swapped_scores_flow_into_press_freedom_summary(
        self, small_campaign, tmp_path
    ):
        # A database that declares the US a poor-press-freedom country:
        # the summary must follow the provider, not the baked-in registry.
        registry = default_registry()
        rows = []
        for row in rows_from_registry(registry):
            score = 80.0 if row.country == "US" else row.press_freedom_score
            rows.append(
                RangeRow(row.start, row.end, row.country, row.asn, score)
            )
        path = tmp_path / "us_poor.db"
        compile_range_db(rows, path)

        baseline = press_freedom_summary(small_campaign.log)
        with use_provider(RangeDbProvider(path)):
            swapped = press_freedom_summary(small_campaign.log)
        assert "US" not in dict(baseline["top"])
        assert dict(swapped["top"]).get("US")
        assert swapped["total_peers"] > baseline["total_peers"]
        assert swapped["countries"] == baseline["countries"] + 1

        # ... and consistently into the aggregate geography summary.
        with use_provider(RangeDbProvider(path)):
            swapped_geo = summarize_geography(small_campaign.log)
        assert (
            swapped_geo.poor_press_freedom_peers
            == swapped["total_peers"]
        )

    def test_swapped_prefixes_flow_into_blocking_curve(
        self, small_campaign, tmp_path
    ):
        # A censor database where the US owns only ONE /16: its censor
        # profile shrinks, so the curve's first point must differ from the
        # synthetic provider's 10-prefix US profile.
        rows = [
            RangeRow(
                ipv4_to_int("24.0.0.0"), ipv4_to_int("24.0.255.255"), "US", 7922
            )
        ]
        path = tmp_path / "tiny.db"
        compile_range_db(rows, path)
        baseline = prefix_blocking_curve(small_campaign, ("US",))
        with use_provider(RangeDbProvider(path)):
            swapped = prefix_blocking_curve(small_campaign, ("US",))
        baseline_points = baseline.get("cumulative block").points
        swapped_points = swapped.get("cumulative block").points
        assert baseline_points[0][0] == 10  # all registry US prefixes
        assert swapped_points[0][0] == 1
        assert swapped_points[0][1] < baseline_points[0][1]
