"""Out-of-core backend equivalence and policy tests.

The acceptance bar for the streamed exposure backend is *byte identity*:
at a fixed seed, a campaign (and every analysis on top of it) must produce
exactly the same output whether the exposure lives in RAM or streams from
a sharded disk bundle.  These tests pin that contract at small scale; the
memory-budget benchmark covers the RSS side at scale 10.
"""

import numpy as np
import pytest

from repro.core import run_scenario
from repro.core.campaign import run_main_campaign
from repro.core.reporting import render_campaign_summary, render_table1
from repro.sim.columns import MemmapPeerColumns, PeerColumns
from repro.sim.exposure import ExposureEngine, parse_byte_size
from repro.sim.population import I2PPopulation, PopulationConfig


def _engines(tmp_path):
    return (
        ExposureEngine(),
        ExposureEngine(cache_dir=tmp_path / "ooc", backend="out_of_core"),
    )


class TestCampaignEquivalence:
    def test_campaign_summary_is_byte_identical(self, tmp_path):
        mem_engine, ooc_engine = _engines(tmp_path)
        mem = run_main_campaign(days=8, scale=0.02, seed=11, engine=mem_engine)
        ooc = run_main_campaign(days=8, scale=0.02, seed=11, engine=ooc_engine)
        assert render_campaign_summary(mem) == render_campaign_summary(ooc)
        assert render_table1(mem.log) == render_table1(ooc.log)
        assert mem.cumulative_union_by_day == ooc.cumulative_union_by_day
        assert mem.daily_online_population == ooc.daily_online_population

    def test_victim_ip_sets_are_identical(self, tmp_path):
        mem_engine, ooc_engine = _engines(tmp_path)
        mem = run_main_campaign(days=6, scale=0.02, seed=12, engine=mem_engine)
        ooc = run_main_campaign(days=6, scale=0.02, seed=12, engine=ooc_engine)
        # The victim collects daily IPs through the lazy (disk re-read)
        # path on the streamed backend; sets must still match exactly.
        assert len(mem.victim.daily_ip_sets) == len(ooc.victim.daily_ip_sets)
        for day in range(len(mem.victim.daily_ip_sets)):
            assert mem.victim.daily_ip_sets[day] == ooc.victim.daily_ip_sets[day]
        assert mem.victim.daily_peer_sets == ooc.victim.daily_peer_sets

    def test_figure_suite_is_byte_identical(self, tmp_path):
        mem_engine, ooc_engine = _engines(tmp_path)
        mem = run_scenario(
            "figure_suite", scale=0.02, seed=13, days=6, engine=mem_engine
        )
        ooc = run_scenario(
            "figure_suite", scale=0.02, seed=13, days=6, engine=ooc_engine
        )
        assert sorted(mem.figures) == sorted(ooc.figures)
        assert {k: f.to_text() for k, f in mem.figures.items()} == {
            k: f.to_text() for k, f in ooc.figures.items()
        }
        assert mem.summaries == ooc.summaries

    def test_fault_free_netdb_round_is_byte_identical(self, tmp_path):
        mem_engine, ooc_engine = _engines(tmp_path)
        mem = run_scenario(
            "netdb-scale", scale=0.02, seed=14, engine=mem_engine, router_count=300
        )
        ooc = run_scenario(
            "netdb-scale", scale=0.02, seed=14, engine=ooc_engine, router_count=300
        )

        def deterministic(summaries):
            # Wall-clock timing fields legitimately vary run to run; the
            # simulated outputs (message counts, coverage, success) must not.
            return {
                section: {
                    name: {
                        key: value
                        for key, value in row.items()
                        if "second" not in key
                    }
                    for name, row in body.items()
                }
                for section, body in summaries.items()
            }

        assert deterministic(mem.summaries) == deterministic(ooc.summaries)


class TestLeanPopulationBuild:
    def test_lean_build_produces_identical_columns(self):
        config = PopulationConfig(
            target_daily_population=600, horizon_days=6, seed=21
        )
        full = I2PPopulation(config=config)
        lean = I2PPopulation(config=config, retain_records=False)
        for day in range(4):
            a = full.day_view(day)
            b = lean.day_view(day)
            np.testing.assert_array_equal(a.columns.indices, b.columns.indices)
            assert a.columns.ip.tolist() == b.columns.ip.tolist()
            assert a.new_arrivals == b.new_arrivals
            assert a.departures == b.departures
        assert full.total_identities() == lean.total_identities()

    def test_lean_population_drops_record_objects(self):
        config = PopulationConfig(
            target_daily_population=600, horizon_days=4, seed=22
        )
        lean = I2PPopulation(config=config, retain_records=False)
        lean.day_view(0)
        assert lean.columns.records == []
        with pytest.raises(RuntimeError):
            lean.peer(b"whatever")


class TestMemmapPeerColumns:
    def _restored_store(self, tmp_path):
        from repro.sim import exposure_cache

        config = PopulationConfig(
            target_daily_population=600, horizon_days=3, seed=23
        )
        exposure = ExposureEngine().get(config, 99, days=2)
        path = exposure_cache.save_exposure(exposure, tmp_path)
        return exposure, exposure_cache.load_exposure(path).population.columns

    def test_columns_match_the_original_store(self, tmp_path):
        exposure, store = self._restored_store(tmp_path)
        original = exposure.population.columns
        assert isinstance(store, MemmapPeerColumns)
        assert isinstance(store, PeerColumns)
        assert store.size == original.size
        np.testing.assert_array_equal(store.tier_code, original.tier_code)
        np.testing.assert_array_equal(store.floodfill, original.floodfill)
        np.testing.assert_array_equal(store.activity, original.activity)
        assert store.peer_ids.tolist() == original.peer_ids.tolist()

    def test_mutation_is_rejected(self, tmp_path):
        _, store = self._restored_store(tmp_path)
        with pytest.raises(RuntimeError, match="read-only"):
            store.append(object(), None, None)
        with pytest.raises(RuntimeError, match="read-only"):
            store.set_assignment(0, None)

    def test_missing_column_error_is_informative(self, tmp_path):
        _, store = self._restored_store(tmp_path)
        with pytest.raises(AttributeError, match="only persists"):
            store.records_by_country


class TestRestoredAddressDecoding:
    def test_analyses_decode_each_days_addresses_at_most_once(
        self, tmp_path, monkeypatch
    ):
        """Every monitor's lazy address set for a day shares one read of
        that day's address-key columns."""
        from collections import Counter

        from repro.core.blocking import blocking_curve
        from repro.core.bridges import bridge_pool_summary, bridge_survival_curve
        from repro.core.campaign import campaign_observation_seed

        days, seed = 6, 16
        engine = ExposureEngine(cache_dir=tmp_path, backend="out_of_core")
        result = run_main_campaign(days=days, scale=0.02, seed=seed, engine=engine)
        exposure = engine.get(result.config.population, campaign_observation_seed(seed))
        reader = exposure._reader
        day_array = reader.day_array
        reads = Counter()

        def counting_day_array(day, column):
            reads[day, column] += 1
            return day_array(day, column)

        monkeypatch.setattr(reader, "day_array", counting_day_array)
        blocking_curve(result)
        bridge_pool_summary(result)
        bridge_survival_curve(result)
        assert {day for day, column in reads if column == "addr4"} == set(range(days))
        assert max(reads.values()) == 1


class TestParseByteSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1048576", 1024**2),
            ("512K", 512 * 1024),
            ("2M", 2 * 1024**2),
            ("3g", 3 * 1024**3),
            ("1T", 1024**4),
            ("2GiB", 2 * 1024**3),
            ("500MB", 500 * 1024**2),
            ("1.5G", int(1.5 * 1024**3)),
            ("0", 0),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_byte_size(text, "test") == expected

    @pytest.mark.parametrize("text", ["lots", "", "G", "-1", "12X"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError, match="test"):
            parse_byte_size(text, "test")
