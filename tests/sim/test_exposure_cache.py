"""Tests for the sharded on-disk exposure bundle (``sim/exposure_cache.py``)."""

import json
import logging

import numpy as np
import pytest

from repro.core.campaign import run_main_campaign, scaled_population_config
from repro.core.reporting import render_campaign_summary, render_table1
from repro.core.blocking import blocking_curve
from repro.core.population import daily_population_figure
from repro.sim.exposure import CachedExposure, ExposureEngine
from repro.sim import exposure_cache
from repro.sim.rng import derive_seed


def _key(scale=0.02, days=4, seed=2018):
    config = scaled_population_config(scale, days=days, seed=seed)
    return config, derive_seed(seed, "observation")


class TestDigest:
    def test_digest_is_stable(self):
        config, obs_seed = _key()
        assert exposure_cache.exposure_digest(
            config, obs_seed
        ) == exposure_cache.exposure_digest(config, obs_seed)

    def test_digest_varies_with_config_and_seed(self):
        config, obs_seed = _key()
        other_config, _ = _key(scale=0.03)
        digests = {
            exposure_cache.exposure_digest(config, obs_seed),
            exposure_cache.exposure_digest(other_config, obs_seed),
            exposure_cache.exposure_digest(config, obs_seed + 1),
        }
        assert len(digests) == 3


class TestBundleLayout:
    def test_bundle_is_a_directory_with_meta_store_and_shards(self, tmp_path):
        config, obs_seed = _key()
        exposure = ExposureEngine().get(config, obs_seed, days=3)
        path = exposure_cache.save_exposure(exposure, tmp_path)
        assert path.is_dir()
        meta = exposure_cache.read_meta(path)
        assert meta["format_version"] == exposure_cache.FORMAT_VERSION
        assert meta["days"] == 3
        assert meta["shard_days"] == 2
        assert (path / "store").is_dir()
        # days 0-1 in the first shard, day 2 in the second
        assert (path / "days-00000").is_dir()
        assert (path / "days-00002").is_dir()
        assert len(meta["online"]) == 3

    def test_no_temp_directories_left_behind(self, tmp_path):
        config, obs_seed = _key()
        exposure = ExposureEngine().get(config, obs_seed, days=2)
        exposure_cache.save_exposure(exposure, tmp_path)
        leftovers = [
            p for p in tmp_path.iterdir() if p.name.startswith(".exposure-")
        ]
        assert leftovers == []


class TestRoundTrip:
    def test_save_load_roundtrip_arrays(self, tmp_path):
        config, obs_seed = _key()
        engine = ExposureEngine()
        exposure = engine.get(config, obs_seed, days=3)
        path = exposure_cache.save_exposure(exposure, tmp_path)
        assert path.is_dir()

        restored = exposure_cache.load_exposure(path)
        assert isinstance(restored, CachedExposure)
        assert restored.days_materialised == 3
        for day in range(3):
            original = exposure.views[day].columns
            loaded = restored.views[day].columns
            np.testing.assert_array_equal(original.indices, loaded.indices)
            np.testing.assert_array_equal(original.firewalled, loaded.firewalled)
            np.testing.assert_array_equal(original.valid_ip, loaded.valid_ip)
            assert original.ip.tolist() == loaded.ip.tolist()
            assert original.ipv6.tolist() == loaded.ipv6.tolist()
            assert original.country.tolist() == loaded.country.tolist()
            np.testing.assert_array_equal(original.asn, loaded.asn)
            np.testing.assert_array_equal(
                np.asarray(exposure._exposures[day].visibility),
                np.asarray(restored._exposures[day].visibility),
            )
            assert (
                exposure.views[day].columns.peer_ids.tolist()
                == restored.views[day].columns.peer_ids.tolist()
            )

    def test_roundtrip_across_shard_boundaries(self, tmp_path):
        config, obs_seed = _key(days=7)
        exposure = ExposureEngine().get(config, obs_seed, days=7)
        # A shard size other than the default: the reader follows meta.json.
        writer = exposure_cache.BundleWriter(tmp_path, config, obs_seed, shard_days=3)
        for day in range(7):
            writer.add_day(exposure.views[day], exposure._exposures[day])
        writer.write_store(exposure.population.columns)
        restored = exposure_cache.load_exposure(writer.finalise())
        assert restored.day_shard_size == 3
        # Access out of order so the reader's shard window has to rotate.
        for day in (6, 0, 4, 2, 5, 1, 3):
            original = exposure.views[day].columns
            loaded = restored.views[day].columns
            np.testing.assert_array_equal(original.indices, loaded.indices)
            assert original.ip.tolist() == loaded.ip.tolist()

    def test_restored_masks_are_bit_identical(self, tmp_path):
        from repro.sim.observation import MonitorMode, MonitorSpec

        config, obs_seed = _key()
        engine = ExposureEngine()
        exposure = engine.get(config, obs_seed, days=2)
        spec = MonitorSpec("ff-0", MonitorMode.FLOODFILL, 8000.0)
        expected = exposure.monitor_day_mask(spec, 1)
        path = exposure_cache.save_exposure(exposure, tmp_path)
        restored = exposure_cache.load_exposure(path)
        np.testing.assert_array_equal(expected, restored.monitor_day_mask(spec, 1))

    def test_restored_exposure_cannot_extend(self, tmp_path):
        config, obs_seed = _key()
        exposure = ExposureEngine().get(config, obs_seed, days=2)
        restored = exposure_cache.load_exposure(
            exposure_cache.save_exposure(exposure, tmp_path)
        )
        with pytest.raises(RuntimeError, match="restored from the disk cache"):
            restored.ensure_days(3)

    def test_restored_population_is_read_only(self, tmp_path):
        config, obs_seed = _key()
        exposure = ExposureEngine().get(config, obs_seed, days=1)
        restored = exposure_cache.load_exposure(
            exposure_cache.save_exposure(exposure, tmp_path)
        )
        with pytest.raises(RuntimeError, match="read-only"):
            restored.population.day_view(0)
        assert restored.population.total_identities() == exposure.population.columns.size

    def test_restored_store_is_read_only(self, tmp_path):
        config, obs_seed = _key()
        exposure = ExposureEngine().get(config, obs_seed, days=1)
        restored = exposure_cache.load_exposure(
            exposure_cache.save_exposure(exposure, tmp_path)
        )
        with pytest.raises(RuntimeError, match="read-only"):
            restored.population.columns.append(object(), None, None)

    def test_release_day_state_keeps_later_days_readable(self, tmp_path):
        config, obs_seed = _key(days=6)
        exposure = ExposureEngine().get(config, obs_seed, days=6)
        restored = exposure_cache.load_exposure(
            exposure_cache.save_exposure(exposure, tmp_path)
        )
        _ = restored.views[0], restored.views[1]
        restored.release_day_state(2)
        # Released days can still be re-read (from disk), later days too.
        np.testing.assert_array_equal(
            exposure.views[1].columns.indices, restored.views[1].columns.indices
        )
        np.testing.assert_array_equal(
            exposure.views[5].columns.indices, restored.views[5].columns.indices
        )


class TestEngineIntegration:
    def test_second_engine_loads_from_disk_and_skips_build(self, tmp_path):
        first = ExposureEngine(cache_dir=tmp_path)
        result_fresh = run_main_campaign(days=4, scale=0.02, seed=5, engine=first)
        assert first.misses == 1 and first.disk_hits == 0
        first.flush()
        assert [p for p in tmp_path.iterdir() if exposure_cache._is_bundle(p)]

        second = ExposureEngine(cache_dir=tmp_path)
        result_cached = run_main_campaign(days=4, scale=0.02, seed=5, engine=second)
        assert second.misses == 0
        assert second.disk_hits == 1

        # Full pipeline byte-identity between fresh and cache-restored runs.
        assert render_campaign_summary(result_fresh) == render_campaign_summary(
            result_cached
        )
        assert render_table1(result_fresh.log) == render_table1(result_cached.log)
        assert blocking_curve(result_fresh).to_text() == blocking_curve(
            result_cached
        ).to_text()
        assert daily_population_figure(result_fresh.log).to_text() == (
            daily_population_figure(result_cached.log).to_text()
        )

    def test_restored_run_supports_the_aggregate_compatibility_view(self, tmp_path):
        """log.peers must still materialise on a cache-restored campaign
        (advertised tiers come from the persisted bitmask column, not the
        absent PeerRecord objects)."""
        first = ExposureEngine(cache_dir=tmp_path)
        fresh = run_main_campaign(days=3, scale=0.02, seed=6, engine=first)
        first.flush()
        second = ExposureEngine(cache_dir=tmp_path)
        cached = run_main_campaign(days=3, scale=0.02, seed=6, engine=second)
        assert second.disk_hits == 1
        fresh_peers = fresh.log.peers
        cached_peers = cached.log.peers
        assert set(fresh_peers) == set(cached_peers)
        for peer_id, reference in fresh_peers.items():
            restored = cached_peers[peer_id]
            assert restored.days_observed == reference.days_observed
            assert restored.countries == reference.countries
            assert restored.asns == reference.asns
            assert restored.advertised_flag_days == reference.advertised_flag_days
            assert restored.primary_tier_days == reference.primary_tier_days
        assert len(cached.log.known_ip_peers()) == len(fresh.log.known_ip_peers())

    def test_short_cache_entry_is_rebuilt_and_overwritten(self, tmp_path):
        config, obs_seed = _key(days=6)
        short_engine = ExposureEngine(cache_dir=tmp_path)
        short_engine.get(config, obs_seed, days=2)
        short_engine.flush()

        long_engine = ExposureEngine(cache_dir=tmp_path)
        entry = long_engine.get(config, obs_seed, days=5)
        # Too short on disk: a fresh build, not a restored entry.
        assert long_engine.misses == 1 and long_engine.disk_hits == 0
        assert not isinstance(entry, CachedExposure)
        assert entry.days_materialised >= 5
        long_engine.flush()

        # The overwritten bundle now serves the longer request.
        third = ExposureEngine(cache_dir=tmp_path)
        third.get(config, obs_seed, days=5)
        assert third.disk_hits == 1

    def test_in_memory_restored_entry_rebuilds_on_longer_request(self, tmp_path):
        config, obs_seed = _key(days=6)
        seeder = ExposureEngine(cache_dir=tmp_path)
        seeder.get(config, obs_seed, days=2)
        seeder.flush()
        engine = ExposureEngine(cache_dir=tmp_path)
        restored = engine.get(config, obs_seed, days=2)
        assert isinstance(restored, CachedExposure)
        rebuilt = engine.get(config, obs_seed, days=4)
        assert not isinstance(rebuilt, CachedExposure)
        assert rebuilt.days_materialised >= 4

    def test_corrupt_meta_is_a_miss(self, tmp_path):
        config, obs_seed = _key()
        path = exposure_cache.cache_path(tmp_path, config, obs_seed)
        path.mkdir(parents=True)
        (path / "meta.json").write_text("not json {")
        engine = ExposureEngine(cache_dir=tmp_path)
        entry = engine.get(config, obs_seed, days=2)
        assert engine.misses == 1 and engine.disk_hits == 0
        assert entry.days_materialised >= 2

    def test_engine_without_cache_dir_writes_nothing(self, tmp_path):
        config, obs_seed = _key()
        ExposureEngine().get(config, obs_seed, days=2)
        assert not list(tmp_path.iterdir())

    def test_flush_joins_the_background_write(self, tmp_path):
        config, obs_seed = _key()
        engine = ExposureEngine(cache_dir=tmp_path)
        engine.get(config, obs_seed, days=2)
        ((thread, days),) = engine._pending.values()
        assert thread.name == "repro-exposure-persist" and days == 2
        engine.flush()
        assert not thread.is_alive() and not engine._pending
        path = exposure_cache.cache_path(tmp_path, config, obs_seed)
        assert exposure_cache._is_bundle(path)

    def test_background_write_is_joined_by_same_engine_reload(self, tmp_path):
        """An engine that just scheduled a background save must not race
        itself when the entry is evicted from RAM and re-requested."""
        config, obs_seed = _key()
        engine = ExposureEngine(cache_dir=tmp_path, capacity=1)
        engine.get(config, obs_seed, days=2)
        # Evict the in-memory entry while the save may still be in flight.
        other_config, other_seed = _key(seed=3)
        engine.get(other_config, other_seed, days=1)
        engine.get(config, obs_seed, days=2)
        assert engine.disk_hits == 1

    def test_flush_is_idempotent(self, tmp_path):
        engine = ExposureEngine(cache_dir=tmp_path)
        config, obs_seed = _key()
        engine.get(config, obs_seed, days=1)
        engine.flush()
        engine.flush()
        assert exposure_cache._is_bundle(
            exposure_cache.cache_path(tmp_path, config, obs_seed)
        )


class TestOutOfCoreBackend:
    def test_out_of_core_requires_cache_dir(self):
        with pytest.raises(ValueError, match="cache_dir"):
            ExposureEngine(backend="out_of_core")

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown exposure backend"):
            ExposureEngine(backend="ram")

    def test_hyphenated_backend_name_is_accepted(self, tmp_path):
        engine = ExposureEngine(cache_dir=tmp_path, backend="out-of-core")
        assert engine.backend == "out_of_core"

    def test_miss_builds_a_streamed_entry(self, tmp_path):
        config, obs_seed = _key(days=5)
        engine = ExposureEngine(cache_dir=tmp_path, backend="out_of_core")
        entry = engine.get(config, obs_seed, days=5)
        assert isinstance(entry, CachedExposure)
        assert entry.days_materialised == 5
        assert engine.misses == 1
        # The bundle landed on disk as part of the build itself.
        assert exposure_cache._is_bundle(
            exposure_cache.cache_path(tmp_path, config, obs_seed)
        )

    def test_out_of_core_matches_in_memory_bit_for_bit(self, tmp_path):
        config, obs_seed = _key(days=5)
        mem = ExposureEngine().get(config, obs_seed, days=5)
        ooc = ExposureEngine(cache_dir=tmp_path, backend="out_of_core").get(
            config, obs_seed, days=5
        )
        for day in range(5):
            a, b = mem.views[day].columns, ooc.views[day].columns
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.firewalled, b.firewalled)
            np.testing.assert_array_equal(a.tier_code, b.tier_code)
            assert a.ip.tolist() == b.ip.tolist()
            assert a.peer_ids.tolist() == b.peer_ids.tolist()
            np.testing.assert_array_equal(
                np.asarray(mem._exposures[day].visibility),
                np.asarray(ooc._exposures[day].visibility),
            )


class TestCacheMaintenance:
    def test_cache_entries_and_clear(self, tmp_path):
        config, obs_seed = _key()
        exposure = ExposureEngine().get(config, obs_seed, days=2)
        exposure_cache.save_exposure(exposure, tmp_path)
        entries = exposure_cache.cache_entries(tmp_path)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["days"] == 2
        assert entry["peers"] == exposure.population.columns.size
        assert entry["seed"] == config.seed
        assert entry["bytes"] > 0
        assert exposure_cache.clear_cache(tmp_path) == 1
        assert exposure_cache.cache_entries(tmp_path) == []

    def test_cache_entries_flags_unreadable_bundles(self, tmp_path):
        bad = tmp_path / "deadbeef"
        bad.mkdir()
        (bad / "meta.json").write_text("junk {")
        entries = exposure_cache.cache_entries(tmp_path)
        assert entries and entries[0]["error"] == "unreadable"

    def test_cache_entries_flags_legacy_npz(self, tmp_path):
        (tmp_path / "cafecafe.npz").write_bytes(b"PK\x03\x04" + b"\x00" * 64)
        entries = exposure_cache.cache_entries(tmp_path)
        assert entries and entries[0]["error"] == "legacy v1 archive"

    def test_clear_cache_sweeps_legacy_and_temp_dirs(self, tmp_path):
        (tmp_path / "cafecafe.npz").write_bytes(b"junk")
        stale = tmp_path / ".exposure-leftover"
        stale.mkdir()
        (stale / "partial.bin").write_bytes(b"\x00")
        assert exposure_cache.clear_cache(tmp_path) == 1
        assert not (tmp_path / "cafecafe.npz").exists()
        assert not stale.exists()

    def test_missing_directory_is_empty(self, tmp_path):
        missing = tmp_path / "nope"
        assert exposure_cache.cache_entries(missing) == []
        assert exposure_cache.clear_cache(missing) == 0

    def test_human_bytes(self):
        assert exposure_cache.human_bytes(512) == "512 B"
        assert exposure_cache.human_bytes(2048) == "2.0 KiB"
        assert exposure_cache.human_bytes(5 * 1024**2) == "5.0 MiB"
        assert exposure_cache.human_bytes(3 * 1024**3) == "3.0 GiB"


class TestCacheBudget:
    def _bundle(self, directory, seed):
        config, obs_seed = _key(seed=seed)
        exposure = ExposureEngine().get(config, obs_seed, days=1)
        return exposure_cache.save_exposure(exposure, directory)

    def test_oldest_entries_are_evicted_first(self, tmp_path, caplog):
        import os
        import time

        first = self._bundle(tmp_path, seed=1)
        second = self._bundle(tmp_path, seed=2)
        # Make the first bundle decisively older than the second.
        old = time.time() - 10_000
        os.utime(first / "meta.json", (old, old))
        budget = exposure_cache.bundle_size(second) + 1
        with caplog.at_level(logging.INFO, logger="repro.sim.exposure_cache"):
            evicted = exposure_cache.enforce_cache_budget(tmp_path, budget)
        assert evicted == [first]
        assert not first.exists()
        assert second.exists()
        assert any("evicted" in record.message for record in caplog.records)

    def test_protected_entry_survives_even_over_budget(self, tmp_path):
        bundle = self._bundle(tmp_path, seed=1)
        evicted = exposure_cache.enforce_cache_budget(tmp_path, 1, protect=bundle)
        assert evicted == []
        assert bundle.exists()

    def test_budget_large_enough_evicts_nothing(self, tmp_path):
        bundle = self._bundle(tmp_path, seed=1)
        assert exposure_cache.enforce_cache_budget(tmp_path, 10 * 1024**3) == []
        assert bundle.exists()

    def test_loading_bumps_recency(self, tmp_path):
        import os
        import time

        bundle = self._bundle(tmp_path, seed=1)
        old = time.time() - 10_000
        os.utime(bundle / "meta.json", (old, old))
        before = exposure_cache._bundle_recency(bundle)
        exposure_cache.load_exposure(bundle)
        assert exposure_cache._bundle_recency(bundle) > before

    def test_engine_enforces_budget_after_save(self, tmp_path):
        config_a, seed_a = _key(seed=1)
        config_b, seed_b = _key(seed=2)
        probe = ExposureEngine(cache_dir=tmp_path)
        probe.get(config_a, seed_a, days=1)
        probe.flush()
        bundle_bytes = exposure_cache.bundle_size(
            exposure_cache.cache_path(tmp_path, config_a, seed_a)
        )
        exposure_cache.clear_cache(tmp_path)

        engine = ExposureEngine(cache_dir=tmp_path, max_bytes=int(bundle_bytes * 1.5))
        engine.get(config_a, seed_a, days=1)
        engine.flush()
        engine.get(config_b, seed_b, days=1)
        engine.flush()
        bundles = [p for p in tmp_path.iterdir() if exposure_cache._is_bundle(p)]
        # Only the most recent bundle fits the budget.
        assert len(bundles) == 1
        assert bundles[0] == exposure_cache.cache_path(tmp_path, config_b, seed_b)


class TestCorruptBundles:
    def test_truncated_shard_is_a_miss_not_a_crash(self, tmp_path):
        """A bundle with a torn shard file (e.g. a killed copy) must degrade
        to a rebuild, not raise on load."""
        config, obs_seed = _key()
        engine = ExposureEngine(cache_dir=tmp_path)
        engine.get(config, obs_seed, days=2)
        engine.flush()
        path = exposure_cache.cache_path(tmp_path, config, obs_seed)
        shard_file = path / "days-00000" / "indices.bin"
        shard_file.write_bytes(shard_file.read_bytes()[:-4])

        fresh = ExposureEngine(cache_dir=tmp_path)
        entry = fresh.get(config, obs_seed, days=2)
        assert fresh.misses == 1 and fresh.disk_hits == 0
        assert entry.days_materialised >= 2

    def test_missing_store_file_is_a_miss(self, tmp_path):
        config, obs_seed = _key()
        seeder = ExposureEngine(cache_dir=tmp_path)
        seeder.get(config, obs_seed, days=2)
        seeder.flush()
        path = exposure_cache.cache_path(tmp_path, config, obs_seed)
        (path / "store" / "tier_code.bin").unlink()
        fresh = ExposureEngine(cache_dir=tmp_path)
        entry = fresh.get(config, obs_seed, days=2)
        assert fresh.misses == 1 and fresh.disk_hits == 0
        assert entry.days_materialised >= 2

    def test_stale_format_version_is_a_miss(self, tmp_path):
        config, obs_seed = _key()
        seeder = ExposureEngine(cache_dir=tmp_path)
        seeder.get(config, obs_seed, days=2)
        seeder.flush()
        path = exposure_cache.cache_path(tmp_path, config, obs_seed)
        meta = exposure_cache.read_meta(path)
        meta["format_version"] = 1
        (path / "meta.json").write_text(json.dumps(meta))
        fresh = ExposureEngine(cache_dir=tmp_path)
        fresh.get(config, obs_seed, days=2)
        assert fresh.misses == 1 and fresh.disk_hits == 0

    def test_evict_corrupt_warns_and_removes(self, tmp_path, caplog):
        bad = tmp_path / "deadbeef"
        bad.mkdir()
        (bad / "meta.json").write_text("junk")
        (bad / "store").mkdir()
        (bad / "store" / "x.bin").write_bytes(b"\x00")
        with caplog.at_level(logging.WARNING, logger="repro.sim.exposure_cache"):
            assert exposure_cache.evict_corrupt(bad, ValueError("boom"))
        assert not bad.exists()
        assert any(
            "evicting corrupt exposure cache entry" in record.message
            and "boom" in record.message
            for record in caplog.records
        )

    def test_evict_corrupt_tolerates_a_missing_entry(self, tmp_path):
        assert not exposure_cache.evict_corrupt(
            tmp_path / "gone", OSError("torn")
        )

    def test_corrupt_bundle_is_warned_evicted_and_regenerated(self, tmp_path, caplog):
        """End to end: a corrupt bundle at the cache path triggers a warning,
        gets deleted, and the rebuild writes a healthy replacement that the
        next engine restores from disk."""
        config, obs_seed = _key()
        seeder = ExposureEngine(cache_dir=tmp_path)
        seeder.get(config, obs_seed, days=2)
        seeder.flush()
        path = exposure_cache.cache_path(tmp_path, config, obs_seed)
        shard_file = path / "days-00000" / "indices.bin"
        shard_file.write_bytes(b"\x00" * 3)

        engine = ExposureEngine(cache_dir=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.sim.exposure_cache"):
            engine.get(config, obs_seed, days=2)
        engine.flush()
        assert any(
            "evicting corrupt exposure cache entry" in record.message
            for record in caplog.records
        )
        # The rebuild overwrote the evicted bundle with a loadable one.
        assert exposure_cache._is_bundle(path)
        assert exposure_cache.read_meta(path)["days"] >= 2
        fresh = ExposureEngine(cache_dir=tmp_path)
        fresh.get(config, obs_seed, days=2)
        assert fresh.disk_hits == 1 and fresh.misses == 0
