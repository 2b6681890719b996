"""Measurement campaigns: the paper's methodology experiments (Section 4)
and the three-month main campaign (Section 5).

Every experiment here mirrors one of the paper's methodology steps:

* :func:`single_router_experiment` — Figure 2: a single high-end router run
  for five days in floodfill mode and five days in non-floodfill mode.
* :func:`bandwidth_sweep` — Figure 3: seven floodfill and seven
  non-floodfill routers with shared bandwidths from 128 KB/s to 5 MB/s.
* :func:`router_count_sweep` — Figure 4: cumulative peers observed while
  operating 1–40 routers.
* :func:`run_main_campaign` — the 20-router (10 + 10) campaign whose
  observations feed Figures 5–12 and the censorship analyses.

All experiments accept a ``scale`` parameter that shrinks the synthetic
population proportionally (1.0 reproduces the paper's ~30.5K daily peers);
analyses report shares as well as absolute counts so results remain
comparable across scales.

Every experiment is a thin consumer of the shared exposure engine
(:mod:`repro.sim.exposure`): populations, daily exposure draws, and
per-monitor observation masks are computed once per
``(population config, observation seed)`` and served from a keyed cache,
so experiments that share a seed and horizon (pass ``engine=`` and
``horizon_days=``, or use :func:`run_figure_suite`) cost only their own
monitor-selection/union step.  Cached and rebuilt-from-scratch runs are
byte-identical at a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.series import FigureData
from ..sim.exposure import ExposureEngine, SharedExposure, default_engine
from ..sim.observation import (
    MonitorMode,
    MonitorSpec,
    ObservationModel,
    standard_monitor_fleet,
)
from ..sim.population import I2PPopulation, PopulationConfig
from ..sim.rng import derive_seed
from .capacity_analysis import bandwidth_breakdown, flag_distribution
from .churn_analysis import IpChurnSummary, ip_churn, longevity
from .monitor import MonitoringRouter, ObservationLog

__all__ = [
    "FULL_SCALE_DAILY_POPULATION",
    "CampaignConfig",
    "CampaignResult",
    "FigureSuiteResult",
    "MeasurementCampaign",
    "campaign_observation_seed",
    "scaled_population_config",
    "single_router_experiment",
    "bandwidth_sweep",
    "router_count_sweep",
    "run_main_campaign",
    "run_figure_suite",
]

#: Daily population of the paper's measurement (Section 5.1).
FULL_SCALE_DAILY_POPULATION = 30_500

#: The shared bandwidth the paper configures on its monitoring routers
#: (8 MB/s, the limit of the router's built-in bloom filter).
MONITOR_BANDWIDTH_KBPS = 8_000.0


def scaled_population_config(
    scale: float = 1.0,
    days: int = 90,
    seed: int = 2018,
    horizon_days: Optional[int] = None,
) -> PopulationConfig:
    """A population config whose daily population is ``scale`` × full size.

    ``horizon_days`` (≥ ``days``) widens the population horizon beyond the
    campaign length; experiments that share one :class:`ExposureEngine`
    pass the suite-wide horizon here so their population configs — and
    therefore their cache keys — coincide.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    horizon = days if horizon_days is None else max(days, horizon_days)
    return PopulationConfig(
        target_daily_population=max(200, int(round(FULL_SCALE_DAILY_POPULATION * scale))),
        horizon_days=horizon,
        seed=seed,
    )


def campaign_observation_seed(seed: int) -> int:
    """The observation-stream seed a campaign seed resolves to.

    This derivation is half of the exposure cache key; every consumer
    (campaigns, the scenario engine) must share it so experiments over the
    same population config resolve to the same ``SharedExposure`` entry.
    """
    return derive_seed(seed, "observation")


def _campaign_exposure(
    config: CampaignConfig, engine: Optional[ExposureEngine]
) -> SharedExposure:
    """The shared exposure a campaign config resolves to."""
    if engine is None:
        engine = default_engine()
    return engine.get(
        config.population, campaign_observation_seed(config.seed), days=config.days
    )


@dataclass
class CampaignConfig:
    """Configuration of one measurement campaign."""

    population: PopulationConfig
    monitors: List[MonitorSpec]
    days: int
    seed: int = 2018
    collect_daily_ips: bool = False
    collect_daily_peers: bool = False
    include_victim_client: bool = False
    victim_bandwidth_kbps: float = 256.0

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("a campaign needs at least one day")
        if self.days > self.population.horizon_days:
            raise ValueError("campaign days exceed the population horizon")
        if not self.monitors:
            raise ValueError("a campaign needs at least one monitoring router")


@dataclass
class CampaignResult:
    """Everything a campaign produced.

    ``population`` is the exposure engine's *shared* population: treat it
    as read-only.  Advancing it directly (``population.day_view``) would
    poison the cache entry for every other experiment on the same key —
    the engine detects that and refuses to extend its day state; read
    day views through the campaign's ``exposure`` instead.
    """

    config: CampaignConfig
    population: I2PPopulation
    monitors: List[MonitoringRouter]
    victim: Optional[MonitoringRouter]
    log: ObservationLog
    #: Per day: cumulative union sizes when adding monitors in fleet order.
    cumulative_union_by_day: List[List[int]]
    #: Ground-truth daily online population (from the simulator).
    daily_online_population: List[int]

    @property
    def mean_daily_online(self) -> float:
        if not self.daily_online_population:
            return 0.0
        return float(np.mean(self.daily_online_population))

    def mean_cumulative_union(self) -> List[float]:
        """Cumulative-union curve averaged over campaign days (Figure 4)."""
        if not self.cumulative_union_by_day:
            return []
        array = np.asarray(self.cumulative_union_by_day, dtype=float)
        return [float(x) for x in array.mean(axis=0)]

    def coverage_of_population(self) -> float:
        """Observed unique peers / mean daily ground-truth population."""
        if self.mean_daily_online == 0:
            return 0.0
        return self.log.mean_daily_observed() / self.mean_daily_online


class MeasurementCampaign:
    """Runs a monitor fleet against a synthetic population, day by day.

    The campaign is a thin consumer of a :class:`SharedExposure`: the
    population, the daily exposure draws, and every per-monitor observation
    mask come from the engine's keyed cache, so campaigns that share a
    population config and seed (the whole figure suite) share all of that
    work.  The campaign itself only varies the monitor-selection and union
    step over the cached masks.
    """

    def __init__(
        self,
        config: CampaignConfig,
        engine: Optional[ExposureEngine] = None,
    ) -> None:
        self.config = config
        self.exposure = _campaign_exposure(config, engine)
        self.population = self.exposure.population
        self.monitors = [
            MonitoringRouter(
                spec=spec,
                collect_daily_ips=config.collect_daily_ips,
                collect_daily_peers=config.collect_daily_peers,
            )
            for spec in config.monitors
        ]
        self.victim: Optional[MonitoringRouter] = None
        if config.include_victim_client:
            self.victim = MonitoringRouter(
                spec=MonitorSpec(
                    "victim-client", MonitorMode.CLIENT, config.victim_bandwidth_kbps
                ),
                collect_daily_ips=True,
                collect_daily_peers=True,
            )
        self.log = ObservationLog()

    def run(self, days: Optional[int] = None) -> CampaignResult:
        days = self.config.days if days is None else days
        cumulative_union_by_day: List[List[int]] = []
        monitor_specs = [m.spec for m in self.monitors]
        all_specs = list(monitor_specs)
        if self.victim is not None:
            all_specs.append(self.victim.spec)
        # Disk-backed exposures advertise a shard size; in-memory ones
        # report 0 and the loop below degenerates to one shard covering
        # the whole campaign (identical behaviour to the pre-sharded
        # code path).  Streaming shard-by-shard keeps only one window of
        # day columns and masks resident at a time.
        shard = getattr(self.exposure, "day_shard_size", 0) or days
        for start in range(0, days, shard):
            stop = min(start + shard, days)
            self.exposure.prefetch_masks(all_specs, stop, start_day=start)
            for day in range(start, stop):
                view = self.exposure.view(day)
                masks = self.exposure.fleet_day_masks(monitor_specs, day)
                for monitor, mask in zip(self.monitors, masks):
                    monitor.record_day(view, mask)
                cumulative_union_by_day.append(
                    ObservationModel.cumulative_union_sizes_from_masks(masks)
                )
                union_mask = np.logical_or.reduce(masks, axis=0)
                self.log.record_day(view, union_mask)
                if self.victim is not None:
                    self.victim.record_day(
                        view, self.exposure.monitor_day_mask(self.victim.spec, day)
                    )
            self.exposure.release_day_state(stop)
        return CampaignResult(
            config=self.config,
            population=self.population,
            monitors=self.monitors,
            victim=self.victim,
            log=self.log,
            cumulative_union_by_day=cumulative_union_by_day,
            daily_online_population=self.exposure.daily_online(days),
        )


# --------------------------------------------------------------------------- #
# Methodology experiments (Section 4)
# --------------------------------------------------------------------------- #
def single_router_experiment(
    days_per_mode: int = 5,
    scale: float = 1.0,
    seed: int = 2018,
    shared_kbps: float = MONITOR_BANDWIDTH_KBPS,
    engine: Optional[ExposureEngine] = None,
    horizon_days: Optional[int] = None,
) -> FigureData:
    """Figure 2: one high-end router, floodfill then non-floodfill mode."""
    total_days = days_per_mode * 2
    figure = FigureData(
        figure_id="figure_02",
        title="Peers observed by a single high-end router",
        x_label="day",
        y_label="observed peers",
    )
    floodfill_series = figure.new_series("floodfill")
    non_floodfill_series = figure.new_series("non-floodfill")

    ff_spec = MonitorSpec("single-ff", MonitorMode.FLOODFILL, shared_kbps)
    nff_spec = MonitorSpec("single-nff", MonitorMode.NON_FLOODFILL, shared_kbps)
    config = CampaignConfig(
        population=scaled_population_config(
            scale, days=total_days, seed=seed, horizon_days=horizon_days
        ),
        monitors=[ff_spec],
        days=total_days,
        seed=seed,
    )
    # One population, one router; mode switches halfway, exactly like the
    # paper's 10-day calibration run.
    exposure = _campaign_exposure(config, engine)
    for day in range(total_days):
        if day < days_per_mode:
            observed = int(np.count_nonzero(exposure.monitor_day_mask(ff_spec, day)))
            floodfill_series.add(day + 1, observed)
        else:
            observed = int(np.count_nonzero(exposure.monitor_day_mask(nff_spec, day)))
            non_floodfill_series.add(day + 1, observed)
    figure.add_note(
        f"population scale={scale:g} (daily ground truth ≈ "
        f"{config.population.target_daily_population})"
    )
    return figure


def bandwidth_sweep(
    bandwidths_kbps: Sequence[float] = (128, 256, 1000, 2000, 3000, 4000, 5000),
    days: int = 3,
    scale: float = 1.0,
    seed: int = 2018,
    engine: Optional[ExposureEngine] = None,
    horizon_days: Optional[int] = None,
) -> FigureData:
    """Figure 3: observed peers vs shared bandwidth, per mode and combined.

    A pure mask consumer: per-pair daily counts and unions are boolean
    reductions over the shared exposure's cached monitor masks — no
    monitoring routers or observation logs are materialised at all.
    """
    figure = FigureData(
        figure_id="figure_03",
        title="Observed peers vs shared bandwidth (7 floodfill + 7 non-floodfill)",
        x_label="shared bandwidth (KB/s)",
        y_label="observed peers",
    )
    both = figure.new_series("both")
    floodfill_series = figure.new_series("floodfill")
    non_floodfill_series = figure.new_series("non-floodfill")

    pairs: List[Tuple[MonitorSpec, MonitorSpec]] = [
        (
            MonitorSpec(f"ff-{int(bandwidth)}", MonitorMode.FLOODFILL, bandwidth),
            MonitorSpec(f"nff-{int(bandwidth)}", MonitorMode.NON_FLOODFILL, bandwidth),
        )
        for bandwidth in bandwidths_kbps
    ]
    monitors: List[MonitorSpec] = [spec for pair in pairs for spec in pair]
    config = CampaignConfig(
        population=scaled_population_config(
            scale, days=days, seed=seed, horizon_days=horizon_days
        ),
        monitors=monitors,
        days=days,
        seed=seed,
    )
    exposure = _campaign_exposure(config, engine)
    exposure.prefetch_masks(monitors, days)

    for bandwidth, (ff_spec, nff_spec) in zip(bandwidths_kbps, pairs):
        ff_counts: List[int] = []
        nff_counts: List[int] = []
        union_sizes: List[int] = []
        for day in range(days):
            ff_mask = exposure.monitor_day_mask(ff_spec, day)
            nff_mask = exposure.monitor_day_mask(nff_spec, day)
            ff_counts.append(int(np.count_nonzero(ff_mask)))
            nff_counts.append(int(np.count_nonzero(nff_mask)))
            union_sizes.append(int(np.count_nonzero(ff_mask | nff_mask)))
        floodfill_series.add(bandwidth, float(np.mean(ff_counts)))
        non_floodfill_series.add(bandwidth, float(np.mean(nff_counts)))
        both.add(bandwidth, float(np.mean(union_sizes)) if union_sizes else 0.0)
    figure.add_note(
        f"population scale={scale:g}; daily ground truth ≈ "
        f"{config.population.target_daily_population}"
    )
    return figure


def router_count_sweep(
    max_routers: int = 40,
    days: int = 5,
    scale: float = 1.0,
    seed: int = 2018,
    shared_kbps: float = MONITOR_BANDWIDTH_KBPS,
    engine: Optional[ExposureEngine] = None,
    horizon_days: Optional[int] = None,
) -> Tuple[FigureData, CampaignResult]:
    """Figure 4: cumulative observed peers when operating 1..N routers."""
    if max_routers < 1:
        raise ValueError("max_routers must be at least 1")
    floodfill_count = max_routers // 2
    non_floodfill_count = max_routers - floodfill_count
    monitors = standard_monitor_fleet(floodfill_count, non_floodfill_count, shared_kbps)
    config = CampaignConfig(
        population=scaled_population_config(
            scale, days=days, seed=seed, horizon_days=horizon_days
        ),
        monitors=monitors,
        days=days,
        seed=seed,
    )
    result = MeasurementCampaign(config, engine=engine).run()

    figure = FigureData(
        figure_id="figure_04",
        title="Cumulative peers observed by operating 1..N routers",
        x_label="routers under our control",
        y_label="observed peers",
    )
    series = figure.new_series("cumulative observed")
    for count, value in enumerate(result.mean_cumulative_union(), start=1):
        series.add(count, value)
    figure.add_note(
        f"mean daily ground-truth population = {result.mean_daily_online:.0f}"
    )
    return figure, result


# --------------------------------------------------------------------------- #
# Main campaign (Section 5)
# --------------------------------------------------------------------------- #
def run_main_campaign(
    days: int = 90,
    scale: float = 1.0,
    seed: int = 2018,
    floodfill_monitors: int = 10,
    non_floodfill_monitors: int = 10,
    collect_daily_ips: bool = True,
    include_victim_client: bool = True,
    engine: Optional[ExposureEngine] = None,
    horizon_days: Optional[int] = None,
) -> CampaignResult:
    """Run the paper's main 20-router campaign (Figures 5–12, Section 6)."""
    monitors = standard_monitor_fleet(
        floodfill_monitors, non_floodfill_monitors, MONITOR_BANDWIDTH_KBPS
    )
    config = CampaignConfig(
        population=scaled_population_config(
            scale, days=days, seed=seed, horizon_days=horizon_days
        ),
        monitors=monitors,
        days=days,
        seed=seed,
        collect_daily_ips=collect_daily_ips,
        include_victim_client=include_victim_client,
    )
    return MeasurementCampaign(config, engine=engine).run()


# --------------------------------------------------------------------------- #
# Figure suite (one shared exposure for the whole paper)
# --------------------------------------------------------------------------- #
@dataclass
class FigureSuiteResult:
    """Everything a shared-exposure figure-suite run produced."""

    campaign: CampaignResult
    figure2: FigureData
    figure3: FigureData
    figure4: FigureData
    figure4_result: CampaignResult
    longevity: Dict[int, Dict[str, float]]
    ip_churn: IpChurnSummary
    flag_distribution: Dict[str, float]
    bandwidth_breakdown: Dict[str, Dict[str, float]]
    engine: ExposureEngine


def run_figure_suite(
    days: int = 10,
    scale: float = 1.0,
    seed: int = 2018,
    sweep_days: int = 3,
    router_sweep_days: int = 5,
    max_routers: int = 40,
    engine: Optional[ExposureEngine] = None,
) -> FigureSuiteResult:
    """Run the paper's whole figure pipeline off ONE shared exposure.

    The main campaign, the bandwidth sweep (Figure 3), the router-count
    sweep (Figure 4), the single-router calibration (Figure 2), and the
    heavy campaign analyses (longevity, IP churn, capacity) all resolve to
    the same ``(population config, observation seed)`` cache key: the
    sweeps pass ``horizon_days=days`` so they consume a prefix of the main
    campaign's population instead of rebuilding their own.  The whole suite
    therefore costs roughly one campaign's wall time — the property
    ``benchmarks/test_perf_budget.py`` tracks.
    """
    if days < 2:
        raise ValueError("a figure suite needs at least two days")
    if engine is None:
        engine = ExposureEngine()
    campaign = run_main_campaign(
        days=days, scale=scale, seed=seed, engine=engine, horizon_days=days
    )
    figure2 = single_router_experiment(
        days_per_mode=days // 2, scale=scale, seed=seed, engine=engine, horizon_days=days
    )
    figure3 = bandwidth_sweep(
        days=min(sweep_days, days), scale=scale, seed=seed, engine=engine, horizon_days=days
    )
    figure4, figure4_result = router_count_sweep(
        max_routers=max_routers,
        days=min(router_sweep_days, days),
        scale=scale,
        seed=seed,
        engine=engine,
        horizon_days=days,
    )
    thresholds = (7, 30) if days > 30 else ((7,) if days > 7 else (max(1, days // 2),))
    return FigureSuiteResult(
        campaign=campaign,
        figure2=figure2,
        figure3=figure3,
        figure4=figure4,
        figure4_result=figure4_result,
        longevity=longevity(campaign.log, thresholds=thresholds),
        ip_churn=ip_churn(campaign.log),
        flag_distribution=flag_distribution(campaign.log),
        bandwidth_breakdown=bandwidth_breakdown(campaign.log),
        engine=engine,
    )
