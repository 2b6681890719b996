"""Tests for the eepsite usability model under blocking (Figure 14)."""

import random

import pytest

from repro.core.usability import (
    EepsiteFetchModel,
    PageLoadConfig,
    client_netdb_from_dayview,
    usability_curve,
)
from repro.sim.population import I2PPopulation, PopulationConfig


@pytest.fixture(scope="module")
def client_netdb():
    population = I2PPopulation(
        PopulationConfig(target_daily_population=900, horizon_days=2, seed=41)
    )
    view = population.day_view(0)
    return client_netdb_from_dayview(population, view, size=300, rng=random.Random(0))


class TestClientNetdb:
    def test_size_and_uniqueness(self, client_netdb):
        assert len(client_netdb) == 300
        assert len({info.hash for info in client_netdb}) == 300

    def test_contains_blockable_ips_and_floodfills(self, client_netdb):
        ips = {ip for info in client_netdb for ip in info.ip_addresses}
        assert len(ips) > 50
        assert any(info.is_floodfill for info in client_netdb)

    def test_invalid_size(self, client_netdb):
        population = I2PPopulation(
            PopulationConfig(target_daily_population=300, horizon_days=1, seed=1)
        )
        view = population.day_view(0)
        with pytest.raises(ValueError):
            client_netdb_from_dayview(population, view, size=0)


class TestEepsiteFetchModel:
    def test_requires_netdb(self):
        with pytest.raises(ValueError):
            EepsiteFetchModel([])

    def test_unblocked_fetch_is_fast(self, client_netdb):
        model = EepsiteFetchModel(client_netdb, rng=random.Random(1))
        results = model.fetch_many(20)
        assert all(not r.timed_out for r in results)
        mean = sum(r.seconds for r in results) / len(results)
        # The paper reports ~3.4 s baseline page loads.
        assert 2.0 < mean < 8.0
        assert all(r.http_status == 200 for r in results)

    def test_fully_blocked_fetch_times_out(self, client_netdb):
        blocked = {ip for info in client_netdb for ip in info.ip_addresses}
        model = EepsiteFetchModel(client_netdb, rng=random.Random(2))
        result = model.fetch(blocked)
        assert result.timed_out
        assert result.http_status == 504
        assert result.seconds <= model.config.deadline

    def test_partial_blocking_slower_than_none(self, client_netdb):
        ips = sorted({ip for info in client_netdb for ip in info.ip_addresses})
        rng = random.Random(3)
        blocked = set(rng.sample(ips, int(0.7 * len(ips))))
        baseline_model = EepsiteFetchModel(client_netdb, rng=random.Random(4))
        blocked_model = EepsiteFetchModel(client_netdb, rng=random.Random(4))
        baseline = [r.seconds for r in baseline_model.fetch_many(15)]
        degraded = [r.seconds for r in blocked_model.fetch_many(15, blocked)]
        assert sum(degraded) / len(degraded) > sum(baseline) / len(baseline)

    def test_deadline_respected(self, client_netdb):
        config = PageLoadConfig(deadline=10.0)
        blocked = {ip for info in client_netdb for ip in info.ip_addresses}
        model = EepsiteFetchModel(client_netdb, config=config, rng=random.Random(5))
        result = model.fetch(blocked)
        assert result.seconds <= 10.0
        assert result.timed_out


class TestUsabilityCurve:
    def test_figure14_shape(self, client_netdb):
        figure = usability_curve(
            client_netdb,
            blocking_rates=(0.0, 0.65, 0.85, 0.95),
            fetches_per_rate=12,
            seed=6,
        )
        timeouts = figure.get("timed out requests (%)")
        latency = figure.get("page load time (s)")
        assert timeouts.y_at(0.0) == 0.0
        assert latency.y_at(0.0) < 10.0
        # Usability degrades monotonically in the broad sense: the highest
        # blocking rate is far worse than no blocking (Figure 14).
        assert timeouts.y_at(95.0) > 60.0
        assert latency.y_at(95.0) > 30.0
        assert timeouts.y_at(65.0) >= timeouts.y_at(0.0)
        assert latency.y_at(65.0) > latency.y_at(0.0)

    def test_invalid_blocking_rate(self, client_netdb):
        with pytest.raises(ValueError):
            usability_curve(client_netdb, blocking_rates=(1.5,), fetches_per_rate=1)

    @pytest.mark.parametrize("fetches", [0, -3])
    def test_fewer_than_one_fetch_rejected(self, client_netdb, fetches):
        with pytest.raises(ValueError, match="^fetches_per_rate must be at least 1$"):
            usability_curve(client_netdb, fetches_per_rate=fetches)

    def test_netdb_without_ips_rejected(self):
        from repro.netdb.identity import RouterIdentity
        from repro.netdb.routerinfo import RouterInfo, parse_capacity_string

        hidden_only = [
            RouterInfo(
                identity=RouterIdentity.from_seed("h"),
                addresses=(),
                capacity=parse_capacity_string("LU"),
                published_at=0.0,
            )
        ]
        with pytest.raises(ValueError):
            usability_curve(hidden_only, blocking_rates=(0.0,), fetches_per_rate=1)
