"""Seeded equivalence tests for the columnar population engine.

The columnar ``DayView`` must expose exactly the same peers and per-day
attributes as the row-oriented snapshot path — the lazily materialised
snapshots are the reference, and the recording fast paths must agree with
the row-oriented reference implementations they replaced.
"""

import numpy as np
import pytest

from repro.core.monitor import MonitoringRouter, ObservationLog, day_coverage
from repro.sim.columns import TIER_ORDER, PeerColumns
from repro.sim.observation import MonitorMode, MonitorSpec, ObservationModel
from repro.sim.population import (
    DayView,
    I2PPopulation,
    PopulationConfig,
    reset_snapshot_allocations,
    snapshot_allocations,
)


@pytest.fixture(scope="module")
def population_run():
    population = I2PPopulation(
        PopulationConfig(target_daily_population=700, horizon_days=6, seed=77)
    )
    views = list(population.iter_days())
    return population, views


class TestDayViewEquivalence:
    def test_columns_match_materialised_snapshots(self, population_run):
        _, views = population_run
        for view in views:
            cols = view.columns
            assert cols is not None
            snapshots = view.snapshots
            assert len(snapshots) == cols.count == view.online_count
            for row, snapshot in enumerate(snapshots):
                assert snapshot.peer_id == cols.peer_ids[row]
                assert snapshot.index == int(cols.indices[row])
                assert snapshot.ip == cols.ip[row]
                assert snapshot.ipv6 == cols.ipv6[row]
                assert snapshot.country_code == cols.country[row]
                assert snapshot.activity == pytest.approx(cols.activity[row])
                assert snapshot.base_visibility == pytest.approx(
                    cols.base_visibility[row]
                )
                assert snapshot.bandwidth_tier is TIER_ORDER[cols.tier_code[row]]
                assert snapshot.floodfill == bool(cols.floodfill[row])
                assert snapshot.reachable == bool(cols.reachable[row])
                assert snapshot.firewalled == bool(cols.firewalled[row])
                assert snapshot.hidden == bool(cols.hidden[row])
                assert snapshot.has_valid_ip == bool(cols.valid_ip[row])
                assert snapshot.is_new_today == bool(cols.new_today[row])
                assert snapshot.port == int(cols.port[row])

    def test_counts_derive_from_columns(self, population_run):
        _, views = population_run
        for view in views:
            assert view.known_ip_count == sum(
                1 for s in view.snapshots if s.has_valid_ip
            )
            assert view.firewalled_count == sum(1 for s in view.snapshots if s.firewalled)
            assert view.hidden_count == sum(1 for s in view.snapshots if s.hidden)
            assert view.floodfill_count == sum(1 for s in view.snapshots if s.floodfill)
            assert view.ip_addresses() == [
                s.ip for s in view.snapshots if s.has_valid_ip and s.ip is not None
            ]

    def test_same_seed_same_columns(self):
        config = PopulationConfig(target_daily_population=400, horizon_days=4, seed=9)
        a = I2PPopulation(config)
        b = I2PPopulation(config)
        for view_a, view_b in zip(a.iter_days(), b.iter_days()):
            cols_a, cols_b = view_a.columns, view_b.columns
            assert np.array_equal(cols_a.indices, cols_b.indices)
            assert list(cols_a.ip) == list(cols_b.ip)
            assert np.array_equal(cols_a.firewalled, cols_b.firewalled)
            assert np.array_equal(cols_a.hidden, cols_b.hidden)

    def test_snapshots_are_lazy(self):
        population = I2PPopulation(
            PopulationConfig(target_daily_population=300, horizon_days=2, seed=3)
        )
        reset_snapshot_allocations()
        view = population.day_view(0)
        assert view.online_count > 0
        assert view.known_ip_count >= 0
        assert snapshot_allocations() == 0
        _ = view.snapshots
        assert snapshot_allocations() == view.online_count
        _ = view.snapshots  # cached: no second materialisation
        assert snapshot_allocations() == view.online_count

    def test_legacy_snapshot_construction_still_works(self, population_run):
        _, views = population_run
        reference = views[0]
        legacy = DayView(day=reference.day, snapshots=reference.snapshots)
        assert legacy.online_count == reference.online_count
        assert legacy.known_ip_count == reference.known_ip_count
        assert legacy.firewalled_count == reference.firewalled_count


class TestObservationEquivalence:
    def test_masks_match_index_observations(self, population_run):
        _, views = population_run
        view = views[0]
        fleet = [
            MonitorSpec("ff", MonitorMode.FLOODFILL, 8000.0),
            MonitorSpec("nff", MonitorMode.NON_FLOODFILL, 8000.0),
        ]
        masks = ObservationModel(seed=5).observe_day_masks(view, fleet)
        indices = ObservationModel(seed=5).observe_day(view, fleet)
        assert masks.shape == (2, view.online_count)
        for mask, observed in zip(masks, indices):
            assert np.array_equal(np.nonzero(mask)[0], observed)
        assert ObservationModel.cumulative_union_sizes_from_masks(
            masks
        ) == ObservationModel.cumulative_union_sizes(indices)

    def test_columnar_exposure_matches_snapshot_exposure(self, population_run):
        _, views = population_run
        view = views[1]
        columnar = ObservationModel(seed=8).day_exposure(view)
        legacy_view = DayView(day=view.day, snapshots=view.snapshots)
        legacy = ObservationModel(seed=8).day_exposure(legacy_view)
        assert np.array_equal(columnar.flood_exposed, legacy.flood_exposed)
        assert np.array_equal(columnar.tunnel_exposed, legacy.tunnel_exposed)
        assert np.array_equal(columnar.visibility, legacy.visibility)


class TestRecordingEquivalence:
    """The columnar recording fast paths must agree with the row-oriented
    reference implementations, day by day and aggregate by aggregate."""

    @pytest.fixture(scope="class")
    def recorded(self):
        population = I2PPopulation(
            PopulationConfig(target_daily_population=500, horizon_days=5, seed=123)
        )
        model = ObservationModel(seed=11)
        spec = MonitorSpec("m", MonitorMode.FLOODFILL, 8000.0)
        columnar_log = ObservationLog()
        rows_log = ObservationLog()
        columnar_monitor = MonitoringRouter(
            spec=spec, collect_daily_ips=True, collect_daily_peers=True
        )
        rows_monitor = MonitoringRouter(
            spec=spec, collect_daily_ips=True, collect_daily_peers=True
        )
        for view in population.iter_days():
            observed = model.observe_day(view, [spec])[0]
            columnar_log.record_day(view, observed)
            columnar_monitor.record_day(view, observed)
            legacy_view = DayView(day=view.day, snapshots=view.snapshots)
            rows_log.record_day(legacy_view, observed)
            rows_monitor.record_day(legacy_view, observed)
        return columnar_log, rows_log, columnar_monitor, rows_monitor

    def test_daily_stats_identical(self, recorded):
        columnar_log, rows_log, _, _ = recorded
        assert len(columnar_log.daily) == len(rows_log.daily)
        for a, b in zip(columnar_log.daily, rows_log.daily):
            assert a == b

    def test_aggregates_identical(self, recorded):
        columnar_log, rows_log, _, _ = recorded
        assert columnar_log.unique_peer_count == rows_log.unique_peer_count
        assert set(columnar_log.peers) == set(rows_log.peers)
        for peer_id, reference in rows_log.peers.items():
            aggregate = columnar_log.peers[peer_id]
            assert aggregate == reference

    @pytest.mark.parametrize("first_seen", [False, True])
    def test_known_ip_keys_identical(self, recorded, first_seen):
        """Both recording paths hand the bridge analyses the same peers,
        first days and address keys."""
        columnar_log, rows_log, _, _ = recorded

        def per_peer(log, day):
            first_days, owners, keys = log.known_ip_keys(day, first_seen=first_seen)
            sets = [set() for _ in first_days.tolist()]
            for owner, key in zip(owners.tolist(), keys.tolist()):
                sets[owner].add(key)
            return sorted(zip(first_days.tolist(), map(sorted, sets)))

        for day in range(len(rows_log.daily)):
            assert per_peer(columnar_log, day) == per_peer(rows_log, day)

    def test_day_coverage_identical(self, recorded):
        _, _, columnar_monitor, rows_monitor = recorded
        subject = columnar_monitor.keys_in_window(4, 5)[::2]
        sets = [columnar_monitor.daily_ip_sets, rows_monitor.daily_ip_sets]
        for day in range(5):
            covered = day_coverage(sets, day, subject)
            assert covered[0].any()
            assert np.array_equal(covered[0], covered[1])

    def test_bool_mask_accepted_on_snapshot_backed_views(self, population_run):
        """A boolean mask means the same thing on both view flavours."""
        _, views = population_run
        view = views[0]
        mask = np.zeros(view.online_count, dtype=bool)
        mask[:: 3] = True
        legacy_view = DayView(day=view.day, snapshots=view.snapshots)
        columnar_monitor = MonitoringRouter(
            spec=MonitorSpec("m", MonitorMode.FLOODFILL)
        )
        rows_monitor = MonitoringRouter(spec=MonitorSpec("m", MonitorMode.FLOODFILL))
        columnar_monitor.record_day(view, mask)
        rows_monitor.record_day(legacy_view, mask)
        assert (
            rows_monitor.daily_observed_counts
            == columnar_monitor.daily_observed_counts
            == [int(np.count_nonzero(mask))]
        )
        columnar_log, rows_log = ObservationLog(), ObservationLog()
        assert columnar_log.record_day(view, mask) == rows_log.record_day(
            legacy_view, mask
        )

    def test_monitor_state_identical(self, recorded):
        _, _, columnar_monitor, rows_monitor = recorded
        assert (
            columnar_monitor.daily_observed_counts
            == rows_monitor.daily_observed_counts
        )
        assert columnar_monitor.cumulative_peer_ids == rows_monitor.cumulative_peer_ids
        assert list(columnar_monitor.daily_ip_sets) == list(rows_monitor.daily_ip_sets)
        assert columnar_monitor.daily_peer_sets == rows_monitor.daily_peer_sets
        assert columnar_monitor.ips_in_window(4, 3) == rows_monitor.ips_in_window(4, 3)


class TestRecordingGuards:
    def test_monitor_rejects_views_from_different_populations(self):
        view_a = I2PPopulation(
            PopulationConfig(target_daily_population=200, horizon_days=2, seed=1)
        ).day_view(0)
        view_b = I2PPopulation(
            PopulationConfig(target_daily_population=200, horizon_days=2, seed=2)
        ).day_view(0)
        monitor = MonitoringRouter(spec=MonitorSpec("m", MonitorMode.FLOODFILL))
        monitor.record_day(view_a, np.ones(view_a.online_count, dtype=bool))
        with pytest.raises(ValueError):
            monitor.record_day(view_b, np.ones(view_b.online_count, dtype=bool))

    def test_log_rejects_mixed_recording_modes(self):
        population = I2PPopulation(
            PopulationConfig(target_daily_population=200, horizon_days=3, seed=1)
        )
        columnar_view = population.day_view(0)
        legacy_view = DayView(day=1, snapshots=columnar_view.snapshots)
        log = ObservationLog()
        log.record_day(columnar_view, np.ones(columnar_view.online_count, dtype=bool))
        with pytest.raises(ValueError):
            log.record_day(legacy_view, [0, 1])
        other = ObservationLog()
        other.record_day(legacy_view, [0, 1])
        next_view = population.day_view(1)
        with pytest.raises(ValueError):
            other.record_day(
                next_view, np.ones(next_view.online_count, dtype=bool)
            )


class TestPeerColumnsStore:
    def test_capacity_doubles_transparently(self):
        population = I2PPopulation(
            PopulationConfig(target_daily_population=300, horizon_days=3, seed=55)
        )
        columns = population.columns
        initial_size = columns.size
        # Consume all days: arrivals force appends (and possibly growth).
        for _ in population.iter_days():
            pass
        assert columns.size >= initial_size
        assert columns.size == len(population.peers)
        assert columns.peer_ids.shape[0] == columns.size
        assert columns.presence.shape == (columns.size, 3)
        # Index alignment survives growth.
        for index in (0, columns.size // 2, columns.size - 1):
            assert columns.records[index].peer_id == columns.peer_ids[index]

    def test_append_rejects_misaligned_record(self):
        population = I2PPopulation(
            PopulationConfig(target_daily_population=200, horizon_days=2, seed=6)
        )
        record = population.peers[0]
        with pytest.raises(ValueError):
            population.columns.append(
                record,
                static_ip=True,
                assignment=population.ip_manager.current(record.peer_id),
            )
