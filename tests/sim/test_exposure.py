"""Tests for the shared exposure engine.

The engine's contract: experiments served from the cache are *byte
identical* to experiments that rebuild population + exposure from scratch,
day state is prefix-stable under lazy extension, and per-monitor masks do
not depend on which other monitors exist.
"""

import numpy as np
import pytest

from repro.sim.exposure import ExposureEngine, SharedExposure, default_engine
from repro.sim.observation import MonitorMode, MonitorSpec, standard_monitor_fleet
from repro.sim.population import PopulationConfig
from repro.sim.rng import derive_seed


CONFIG = PopulationConfig(target_daily_population=600, horizon_days=6, seed=21)
OBS_SEED = derive_seed(21, "observation")


@pytest.fixture()
def engine():
    return ExposureEngine()


class TestEngineCache:
    def test_same_key_returns_same_entry(self, engine):
        a = engine.get(CONFIG, OBS_SEED, days=2)
        b = engine.get(CONFIG, OBS_SEED, days=4)
        assert a is b
        assert engine.misses == 1
        assert engine.hits == 1
        assert a.days_materialised >= 4

    def test_different_seed_different_entry(self, engine):
        a = engine.get(CONFIG, OBS_SEED, days=1)
        b = engine.get(CONFIG, OBS_SEED + 1, days=1)
        assert a is not b

    def test_lru_eviction(self):
        engine = ExposureEngine(capacity=2)
        keys = [
            PopulationConfig(target_daily_population=200, horizon_days=2, seed=s)
            for s in (1, 2, 3)
        ]
        entries = [engine.get(cfg, 0, days=1) for cfg in keys]
        assert len(engine) == 2
        # Key 1 was evicted: requesting it again is a rebuild, not a hit.
        rebuilt = engine.get(keys[0], 0, days=1)
        assert rebuilt is not entries[0]

    def test_days_beyond_horizon_rejected(self, engine):
        exposure = engine.get(CONFIG, OBS_SEED)
        with pytest.raises(ValueError):
            exposure.ensure_days(CONFIG.horizon_days + 1)

    def test_empty_engine_is_truthy(self):
        # Regression: `engine or default_engine()` must never discard a
        # freshly created (empty, len()==0) engine.
        assert ExposureEngine()
        assert default_engine() is default_engine()


class TestPrefixStability:
    def test_lazy_extension_preserves_prefix(self):
        spec = MonitorSpec("m", MonitorMode.FLOODFILL, 8000.0)
        short = SharedExposure(CONFIG, OBS_SEED)
        short.ensure_days(2)
        long = SharedExposure(CONFIG, OBS_SEED)
        long.ensure_days(6)
        for day in range(2):
            assert np.array_equal(
                short.monitor_day_mask(spec, day), long.monitor_day_mask(spec, day)
            )
            assert np.array_equal(
                short.exposure(day).flood_exposed, long.exposure(day).flood_exposed
            )
            assert np.array_equal(
                short.view(day).columns.indices, long.view(day).columns.indices
            )


class TestMaskSemantics:
    def test_mask_independent_of_fleet(self):
        """A monitor's mask does not change when other monitors appear."""
        exposure = SharedExposure(CONFIG, OBS_SEED)
        spec = MonitorSpec("ff-0", MonitorMode.FLOODFILL, 8000.0)
        alone = exposure.monitor_day_mask(spec, 0).copy()
        fleet = standard_monitor_fleet(5, 5)
        fleet_masks = exposure.fleet_day_masks(fleet, 0)
        assert np.array_equal(fleet_masks[0], alone)

    def test_distinct_monitors_differ(self):
        exposure = SharedExposure(CONFIG, OBS_SEED)
        a = exposure.monitor_day_mask(MonitorSpec("a", MonitorMode.FLOODFILL, 8000.0), 0)
        b = exposure.monitor_day_mask(MonitorSpec("b", MonitorMode.FLOODFILL, 8000.0), 0)
        assert not np.array_equal(a, b)

    def test_mask_cached_and_stable(self):
        exposure = SharedExposure(CONFIG, OBS_SEED)
        spec = MonitorSpec("m", MonitorMode.NON_FLOODFILL, 2000.0)
        first = exposure.monitor_day_mask(spec, 1)
        second = exposure.monitor_day_mask(spec, 1)
        assert np.array_equal(first, second)

    def test_union_and_cumulative_helpers(self):
        exposure = SharedExposure(CONFIG, OBS_SEED)
        fleet = standard_monitor_fleet(3, 3)
        sizes = exposure.cumulative_union_sizes(fleet, 0)
        assert sizes == sorted(sizes)
        union = exposure.union_day_mask(fleet, 0)
        assert int(union.sum()) == sizes[-1]

    def test_two_engines_byte_identical(self):
        """Rebuild-from-scratch equals cache-served, mask for mask."""
        spec_sets = [standard_monitor_fleet(2, 2), [MonitorSpec("x", MonitorMode.CLIENT, 256.0)]]
        a = SharedExposure(CONFIG, OBS_SEED)
        b = SharedExposure(CONFIG, OBS_SEED)
        for specs in spec_sets:
            for day in range(3):
                assert np.array_equal(
                    a.fleet_day_masks(specs, day), b.fleet_day_masks(specs, day)
                )
