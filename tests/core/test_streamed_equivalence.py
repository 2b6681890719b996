"""Streamed-vs-aggregate equivalence for the PR-3 analysis ports.

Geography, the population split, bridges, and blocking now stream off the
observation log's columnar accumulators.  The old implementations walked
the per-peer :class:`PeerObservationAggregate` dicts; these tests pin the
port by recomputing every ported quantity from ``log.peers`` (the
aggregate compatibility view, unchanged semantics) and asserting the
streamed outputs are identical — including byte-identical rendered text
for the figure tables.
"""

import sys
from collections import Counter

import pytest

from repro.core.blocking import blocking_curve, censor_blacklist, victim_known_ips
from repro.core.bridges import bridge_pool_summary, bridge_survival_curve
from repro.core.geography import (
    asn_distribution,
    asn_figure,
    asn_span,
    asn_span_figure,
    country_distribution,
    country_figure,
    summarize_geography,
)
from repro.core.monitor import ObservationLog, PeerObservationAggregate
from repro.core.population import classify_unknown_ip, summarize_population
from repro.core.reporting import render_campaign_summary
from repro.core import run_main_campaign, run_scenario
from repro.core.scenario import ANALYSES
from repro.sim import addresses
from repro.sim.addresses import format_addresses
from repro.sim.exposure import ExposureEngine
from repro.sim.geo import AutonomousSystem


# --------------------------------------------------------------------------- #
# Aggregate-based reference implementations (the pre-port semantics)
# --------------------------------------------------------------------------- #
def _reference_country_distribution(log: ObservationLog) -> Counter:
    counts: Counter = Counter()
    for aggregate in log.peers.values():
        for country in aggregate.countries:
            counts[country] += 1
    return counts


def _reference_asn_distribution(log: ObservationLog) -> Counter:
    counts: Counter = Counter()
    for aggregate in log.peers.values():
        for asn in aggregate.asns:
            counts[asn] += 1
    return counts


def _reference_asn_span(log: ObservationLog) -> Counter:
    counts: Counter = Counter()
    for aggregate in log.peers.values():
        if aggregate.has_known_ip:
            counts[len(aggregate.asns)] += 1
    return counts


def _reference_classify_unknown_ip(log: ObservationLog) -> dict:
    ever_firewalled = ever_hidden = both = never_addressed = 0
    for aggregate in log.peers.values():
        was_firewalled = aggregate.firewalled_days > 0
        was_hidden = aggregate.hidden_days > 0
        if was_firewalled:
            ever_firewalled += 1
        if was_hidden:
            ever_hidden += 1
        if was_firewalled and was_hidden:
            both += 1
        if not aggregate.has_known_ip:
            never_addressed += 1
    return {
        "ever_firewalled": ever_firewalled,
        "ever_hidden": ever_hidden,
        "both_statuses": both,
        "never_published_address": never_addressed,
    }


def _reference_bridge_pool(result, censor_routers=10, window=5, new_age=2):
    evaluation_day = len(result.log.daily) - 1
    blacklist = censor_blacklist(result.monitors, censor_routers, evaluation_day, window)
    total = unblocked = new = old = 0
    for aggregate in result.log.peers.values():
        if evaluation_day not in aggregate.days_observed or not aggregate.has_known_ip:
            continue
        total += 1
        if (aggregate.ipv4_addresses | aggregate.ipv6_addresses) & blacklist:
            continue
        unblocked += 1
        if evaluation_day - aggregate.first_day <= new_age:
            new += 1
        else:
            old += 1
    return total, unblocked, new, old


class TestStreamedEquivalence:
    def test_country_distribution_matches_aggregates(self, small_campaign):
        log = small_campaign.log
        assert country_distribution(log) == _reference_country_distribution(log)

    def test_asn_distribution_matches_aggregates(self, small_campaign):
        log = small_campaign.log
        assert asn_distribution(log) == _reference_asn_distribution(log)

    def test_asn_span_matches_aggregates(self, small_campaign):
        log = small_campaign.log
        assert asn_span(log) == _reference_asn_span(log)

    def test_geography_figures_deterministic_across_runs(self):
        """The rendered Figure 10-12 tables are byte-identical between two
        independent runs at a fixed seed.

        (The pre-port aggregate path iterated Python *sets* of country
        strings, whose tie order depends on string-hash randomisation; the
        streamed path breaks count ties by stable first-observation order,
        so the tables are reproducible across processes as well.)
        """
        first = run_main_campaign(days=4, scale=0.02, seed=31).log
        second = run_main_campaign(days=4, scale=0.02, seed=31).log
        for figure_fn in (country_figure, asn_figure, asn_span_figure):
            assert figure_fn(first).to_text() == figure_fn(second).to_text()
        assert summarize_geography(first).as_dict() == summarize_geography(
            second
        ).as_dict()

    def test_classify_unknown_ip_matches_aggregates(self, small_campaign):
        log = small_campaign.log
        assert classify_unknown_ip(log) == _reference_classify_unknown_ip(log)

    def test_bridge_pool_matches_aggregates(self, small_campaign):
        total, unblocked, new, old = _reference_bridge_pool(small_campaign)
        summary = bridge_pool_summary(small_campaign)
        assert summary.total_online_known_ip == total
        assert summary.unblocked_known_ip == unblocked
        assert summary.unblocked_newly_joined == new
        assert summary.unblocked_long_lived == old

    def test_bridge_survival_cohort_matches_aggregates(self, small_campaign):
        """The cohort's address keys, formatted per peer, are the aggregates'
        address sets, and the survival curve equals a walk over those
        string sets."""
        log = small_campaign.log
        cohort_day = max(0, len(log.daily) - 4)
        reference = [
            aggregate.ipv4_addresses | aggregate.ipv6_addresses
            for aggregate in log.peers.values()
            if aggregate.first_day == cohort_day and aggregate.has_known_ip
        ]
        first_days, owners, keys = log.known_ip_keys(cohort_day, first_seen=True)
        assert first_days.tolist() == [cohort_day] * len(reference)
        streamed = [set() for _ in reference]
        for owner, address in zip(owners.tolist(), format_addresses(keys)):
            streamed[owner].add(address)
        assert sorted(map(sorted, streamed)) == sorted(map(sorted, reference))

        figure = bridge_survival_curve(small_campaign, cohort_day=cohort_day)
        assert figure.figure_id == "ablation_bridges"
        expected = []
        for day in range(cohort_day, len(log.daily)):
            blacklist = censor_blacklist(small_campaign.monitors, 10, day, 30)
            surviving = sum(1 for ips in reference if not ips & blacklist)
            expected.append((day - cohort_day, surviving / len(reference) * 100.0))
        assert figure.series["new-peer bridges unblocked"].points == expected

    def test_blocking_curve_byte_identical_to_naive_union(self, small_campaign):
        """The incremental blacklist accumulation must reproduce the naive
        per-count union rebuild byte for byte."""
        streamed = blocking_curve(small_campaign).to_text(".6f")
        # Naive reference: full union per (window, count) pair.
        from repro.analysis.series import FigureData
        from repro.core.blocking import blocking_rate

        evaluation_day = len(small_campaign.log.daily) - 1
        figure = FigureData(
            figure_id="figure_13",
            title="Blocking rates under different blacklist time windows",
            x_label="routers under censor control",
            y_label="blocking rate (%)",
        )
        victim_ips = victim_known_ips(small_campaign.victim, evaluation_day, 2)
        figure.add_note(
            f"victim netDb: {len(victim_ips)} peer IPs "
            f"(history window 2 days, evaluation day {evaluation_day + 1})"
        )
        for window in (1, 5, 10, 20, 30):
            series = figure.new_series(f"{window} day" + ("s" if window > 1 else ""))
            for count in range(1, len(small_campaign.monitors) + 1):
                censor_ips = censor_blacklist(
                    small_campaign.monitors, count, evaluation_day, window
                )
                series.add(count, blocking_rate(censor_ips, victim_ips) * 100.0)
        assert streamed == figure.to_text(".6f")


class TestNoAggregateMaterialisation:
    """Acceptance: the whole summary pipeline never touches ``log.peers``."""

    def test_render_campaign_summary_without_aggregates(self, monkeypatch):
        result = run_main_campaign(days=4, scale=0.02, seed=77)

        def _forbidden(self):
            raise AssertionError(
                "render_campaign_summary materialised per-peer aggregates"
            )

        monkeypatch.setattr(ObservationLog, "_materialise_peers", _forbidden)
        original_init = PeerObservationAggregate.__init__

        def _forbidden_init(self, *args, **kwargs):
            raise AssertionError("a PeerObservationAggregate was constructed")

        monkeypatch.setattr(PeerObservationAggregate, "__init__", _forbidden_init)
        try:
            summary = render_campaign_summary(result)
        finally:
            monkeypatch.setattr(PeerObservationAggregate, "__init__", original_init)
        assert "Population (Section 5.1)" in summary
        assert "Geography (Section 5.3.2)" in summary
        # The censorship analyses stream too.
        blocking_curve(result)
        bridge_pool_summary(result)
        bridge_survival_curve(result)
        summarize_population(result.log)
        summarize_geography(result.log)
        classify_unknown_ip(result.log)

    def test_streamed_summary_equals_aggregate_backed_summary(self):
        """Same campaign, summary rendered before and after the aggregate
        view has been materialised — byte-identical either way."""
        fresh = run_main_campaign(days=4, scale=0.02, seed=78)
        streamed_text = render_campaign_summary(fresh)
        assert fresh.log._peers_cache is None  # nothing materialised
        _ = fresh.log.peers  # force the compatibility view
        assert render_campaign_summary(fresh) == streamed_text


class TestNoAddressStrings:
    """Acceptance: the main campaign and every registered analysis carry
    integer address keys end to end and never format an address string."""

    @pytest.mark.parametrize("backend", ["in_memory", "out_of_core"])
    def test_main_campaign_formats_no_address(self, tmp_path, monkeypatch, backend):
        def _forbidden(*args, **kwargs):
            raise AssertionError("an address string was formatted")

        formatters = (addresses.format_address, addresses.format_addresses)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if any(value is formatter for formatter in formatters):
                    monkeypatch.setattr(module, name, _forbidden)
        monkeypatch.setattr(AutonomousSystem, "ipv4_for", _forbidden)
        monkeypatch.setattr(AutonomousSystem, "ipv6_for", _forbidden)

        engine = ExposureEngine(cache_dir=tmp_path, backend=backend)
        result = run_scenario(
            "main_campaign", scale=0.02, seed=79, days=5, engine=engine
        )
        engine.flush()
        assert set(result.spec.analyses) == set(ANALYSES)
        assert "figure_13" in result.figures
        assert "bridge_pool" in result.summaries
