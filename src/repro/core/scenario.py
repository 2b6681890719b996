"""Declarative scenario engine: experiment specs over the shared exposure cache.

The paper's results are one instantiation of a general measurement design —
N floodfill monitors observing a churning peer population, then deriving
geography, longevity, blocking, and bridge analyses from the observation
logs.  Historically every experiment was a bespoke function
(``run_main_campaign``, the two sweeps, the figure suite); this module
turns each of them — plus new what-if designs — into **data**:

* :class:`ScenarioSpec` describes one experiment declaratively: the
  population scale/horizon, the monitor fleet, interventions
  (blocking windows, country blocks, reseed denial), the sweep axis, and
  the analyses to run on the resulting observation log;
* a process-wide **registry** (:func:`register_scenario`,
  :func:`get_scenario`, :func:`list_scenarios`) names every spec so the CLI
  can enumerate and run them (``repro scenarios`` / ``repro run <name>``);
* :func:`run_scenario` is the one engine that executes any spec on top of a
  shared :class:`~repro.sim.exposure.ExposureEngine` — so every scenario
  benefits from the in-process exposure LRU *and* the on-disk bundle cache,
  and scenarios that share a population config share all of its work.

Adding a new experiment is a registry entry, not a new module: pick a
``kind`` (the execution template), parameterise it, and choose analyses
from :data:`ANALYSES`.

Execution templates (``ScenarioSpec.kind``)
-------------------------------------------
``campaign``
    A monitor fleet observes for N days; the listed analyses run on the
    observation log (the paper's Section 5/6 pipeline).
``mode_switch``
    One router, floodfill for the first half and non-floodfill for the
    second (Figure 2's calibration design).
``bandwidth_sweep``
    Floodfill + non-floodfill pairs across a bandwidth axis (Figure 3).
``router_sweep``
    Cumulative coverage of 1..N routers (Figure 4).
``suite``
    The whole figure pipeline off ONE shared exposure (Figures 2–12).
``monitor_fraction``
    What-if: how does coverage degrade when only a fraction of the fleet
    is deployed?  Pure mask consumer over the shared exposure.
``country_blocking``
    What-if: country-level (GeoIP) blocking — how much of a stable
    client's netDb do national address blocks remove?
``prefix_blocking``
    What-if: prefix-granular censorship — each national censor blocks the
    CIDR prefixes the enrichment provider attributes to its country, and
    membership is longest-prefix-match over the victim's netDb
    (``repro run prefix-blocking``, honouring ``--geo-provider``).
``reseed_denial``
    What-if: a cohort of *new* clients under reseed-server denial, with
    and without manual ``i2pseeds.su3`` rescue (Section 6.1).
``usability``
    Figure 14: eepsite page loads from a client whose known peer IPs are
    null-routed at growing blocking rates (Section 6.2.3).
``netdb_scale``
    Message-level: netDb publish throughput (DatabaseStoreMessages per
    second) across network sizes on the batched message plane
    (``repro run netdb-scale``, optionally ``--router-count N``).
``fault_injection``
    Message-level: netDb degradation under a deterministic
    :class:`repro.sim.faults.FaultPlan` — floodfill takedowns, reseed
    outages, lossy links — measuring per-round publish success, lookup
    latency, and coverage (``repro run floodfill-takedown`` /
    ``reseed-outage`` / ``lossy-network``).

All scenario outputs are collected in a :class:`ScenarioResult`
(figures by id, key/value summaries, rendered text tables).  Figures
produced through :func:`run_scenario` are byte-identical to the bespoke
entry points at a fixed seed — locked in by ``tests/core/test_scenario.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.series import FigureData
from ..netdb.routerinfo import RouterInfo
from ..sim.exposure import ExposureEngine
from ..sim.observation import standard_monitor_fleet
from ..sim.population import I2PPopulation, PopulationConfig
from .blocking import blocking_curve, country_blocking_curve, prefix_blocking_curve
from .bridges import bridge_pool_summary, bridge_survival_curve
from .campaign import (
    MONITOR_BANDWIDTH_KBPS,
    CampaignConfig,
    CampaignResult,
    FigureSuiteResult,
    MeasurementCampaign,
    bandwidth_sweep,
    campaign_observation_seed,
    router_count_sweep,
    run_figure_suite,
    scaled_population_config,
    single_router_experiment,
)
from .capacity_analysis import capacity_figure, estimate_population
from .churn_analysis import ip_churn, ip_churn_figure, longevity_figure, longevity_summary
from .geography import (
    asn_figure,
    asn_span_figure,
    country_distribution,
    country_figure,
    summarize_geography,
)
from .population import (
    classify_unknown_ip,
    daily_population_figure,
    summarize_population,
    unknown_ip_figure,
)
from .reporting import render_campaign_summary, render_table1
from .reseed_blocking import reseed_blocking_curve
from .usability import client_netdb_from_dayview, usability_curve

__all__ = [
    "FleetSpec",
    "ScenarioSpec",
    "ScenarioResult",
    "ANALYSES",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "resolve_scenario",
    "run_scenario",
    "scenario_exposure_digest",
]


@dataclass(frozen=True)
class FleetSpec:
    """Monitor fleet shape: interleaved floodfill / non-floodfill routers."""

    floodfill: int = 10
    non_floodfill: int = 10
    shared_kbps: float = MONITOR_BANDWIDTH_KBPS

    @property
    def size(self) -> int:
        return self.floodfill + self.non_floodfill

    def monitors(self):
        return standard_monitor_fleet(
            self.floodfill, self.non_floodfill, self.shared_kbps
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One declaratively described experiment.

    ``params`` carries the kind-specific knobs (sweep axes, intervention
    settings); everything an executor reads from it is documented on the
    executor below.  ``analyses`` names entries of :data:`ANALYSES` to run
    on the campaign's observation log (``campaign`` kind only).
    """

    name: str
    description: str
    kind: str = "campaign"
    days: int = 20
    fleet: FleetSpec = field(default_factory=FleetSpec)
    collect_daily_ips: bool = False
    include_victim: bool = False
    analyses: Tuple[str, ...] = ()
    params: Mapping[str, object] = field(default_factory=dict)
    #: Simulated-network size for message-level kinds (``netdb_scale``):
    #: when set, the scenario runs at exactly this many routers instead
    #: of its default sweep axis.  ``repro run --router-count`` maps here.
    router_count: Optional[int] = None


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    scale: float
    seed: int
    figures: Dict[str, FigureData] = field(default_factory=dict)
    summaries: Dict[str, Dict[str, object]] = field(default_factory=dict)
    tables: Dict[str, str] = field(default_factory=dict)
    campaign: Optional[CampaignResult] = None
    suite: Optional[FigureSuiteResult] = None
    engine: Optional[ExposureEngine] = None
    #: The exposure-cache digest this run resolved through (None for
    #: message-level kinds that never touch the exposure plane).  The
    #: campaign service's grid planner groups jobs on this value so every
    #: job sharing a population streams from one ``SharedExposure`` build.
    exposure_digest: Optional[str] = None

    def add_figure(self, figure: FigureData) -> None:
        self.figures[figure.figure_id] = figure


# --------------------------------------------------------------------------- #
# Analyses registry (campaign post-processing)
# --------------------------------------------------------------------------- #
def _analysis_population(result: CampaignResult, out: ScenarioResult) -> None:
    out.summaries["population"] = summarize_population(result.log).as_dict()
    out.summaries["unknown_ip"] = dict(classify_unknown_ip(result.log))
    out.add_figure(daily_population_figure(result.log))
    out.add_figure(unknown_ip_figure(result.log))


def _analysis_longevity(result: CampaignResult, out: ScenarioResult) -> None:
    out.summaries["longevity"] = longevity_summary(result.log).as_dict()
    out.add_figure(longevity_figure(result.log))


def _analysis_ip_churn(result: CampaignResult, out: ScenarioResult) -> None:
    out.summaries["ip_churn"] = ip_churn(result.log).as_dict()
    out.add_figure(ip_churn_figure(result.log))


def _analysis_capacity(result: CampaignResult, out: ScenarioResult) -> None:
    out.add_figure(capacity_figure(result.log))
    out.tables["table1"] = render_table1(result.log)
    out.summaries["floodfill_estimate"] = estimate_population(result.log).as_dict()


def _analysis_geography(result: CampaignResult, out: ScenarioResult) -> None:
    out.summaries["geography"] = summarize_geography(result.log).as_dict()
    out.add_figure(country_figure(result.log))
    out.add_figure(asn_figure(result.log))
    out.add_figure(asn_span_figure(result.log))


def _analysis_blocking(result: CampaignResult, out: ScenarioResult) -> None:
    out.add_figure(blocking_curve(result))


def _analysis_bridges(result: CampaignResult, out: ScenarioResult) -> None:
    out.summaries["bridge_pool"] = bridge_pool_summary(result).as_dict()
    out.add_figure(bridge_survival_curve(result))


def _analysis_summary(result: CampaignResult, out: ScenarioResult) -> None:
    out.tables["campaign_summary"] = render_campaign_summary(result)


#: Name → analysis function over a finished campaign.  All of them stream
#: off the observation log's accumulator arrays; none materialises
#: per-peer aggregates.
ANALYSES: Dict[str, Callable[[CampaignResult, ScenarioResult], None]] = {
    "population": _analysis_population,
    "longevity": _analysis_longevity,
    "ip_churn": _analysis_ip_churn,
    "capacity": _analysis_capacity,
    "geography": _analysis_geography,
    "blocking": _analysis_blocking,
    "bridges": _analysis_bridges,
    "summary": _analysis_summary,
}


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, replace_existing: bool = False) -> ScenarioSpec:
    """Register a spec under its name; rejects silent redefinition."""
    if spec.name in _REGISTRY and not replace_existing:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    unknown = [a for a in spec.analyses if a not in ANALYSES]
    if unknown:
        raise ValueError(f"unknown analyses for scenario {spec.name!r}: {unknown}")
    if spec.kind not in _EXECUTORS:
        raise ValueError(f"unknown scenario kind {spec.kind!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None


def list_scenarios() -> List[ScenarioSpec]:
    """All registered specs, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
def _campaign_config(
    spec: ScenarioSpec, scale: float, seed: int, days: int, horizon: Optional[int]
) -> CampaignConfig:
    return CampaignConfig(
        population=scaled_population_config(
            scale, days=days, seed=seed, horizon_days=horizon
        ),
        monitors=spec.fleet.monitors(),
        days=days,
        seed=seed,
        collect_daily_ips=spec.collect_daily_ips,
        include_victim_client=spec.include_victim,
    )


def _execute_campaign(
    spec: ScenarioSpec,
    out: ScenarioResult,
    scale: float,
    seed: int,
    days: int,
    engine: ExposureEngine,
) -> None:
    config = _campaign_config(spec, scale, seed, days, None)
    result = MeasurementCampaign(config, engine=engine).run()
    out.campaign = result
    for name in spec.analyses:
        ANALYSES[name](result, out)


def _execute_mode_switch(
    spec: ScenarioSpec,
    out: ScenarioResult,
    scale: float,
    seed: int,
    days: int,
    engine: ExposureEngine,
) -> None:
    days_per_mode = int(spec.params.get("days_per_mode", max(1, days // 2)))
    out.add_figure(
        single_router_experiment(
            days_per_mode=days_per_mode,
            scale=scale,
            seed=seed,
            shared_kbps=spec.fleet.shared_kbps,
            engine=engine,
        )
    )


def _execute_bandwidth_sweep(
    spec: ScenarioSpec,
    out: ScenarioResult,
    scale: float,
    seed: int,
    days: int,
    engine: ExposureEngine,
) -> None:
    bandwidths = tuple(
        spec.params.get("bandwidths_kbps", (128, 256, 1000, 2000, 3000, 4000, 5000))
    )
    out.add_figure(
        bandwidth_sweep(
            bandwidths_kbps=bandwidths,
            days=days,
            scale=scale,
            seed=seed,
            engine=engine,
        )
    )


def _execute_router_sweep(
    spec: ScenarioSpec,
    out: ScenarioResult,
    scale: float,
    seed: int,
    days: int,
    engine: ExposureEngine,
) -> None:
    max_routers = int(spec.params.get("max_routers", spec.fleet.size))
    figure, result = router_count_sweep(
        max_routers=max_routers,
        days=days,
        scale=scale,
        seed=seed,
        shared_kbps=spec.fleet.shared_kbps,
        engine=engine,
    )
    out.add_figure(figure)
    out.campaign = result


def _execute_suite(
    spec: ScenarioSpec,
    out: ScenarioResult,
    scale: float,
    seed: int,
    days: int,
    engine: ExposureEngine,
) -> None:
    suite = run_figure_suite(
        days=days,
        scale=scale,
        seed=seed,
        sweep_days=int(spec.params.get("sweep_days", 3)),
        router_sweep_days=int(spec.params.get("router_sweep_days", 5)),
        max_routers=int(spec.params.get("max_routers", 40)),
        engine=engine,
    )
    out.suite = suite
    out.campaign = suite.campaign
    out.add_figure(suite.figure2)
    out.add_figure(suite.figure3)
    out.add_figure(suite.figure4)
    out.summaries["longevity_thresholds"] = {
        str(threshold): values for threshold, values in suite.longevity.items()
    }
    out.summaries["ip_churn"] = suite.ip_churn.as_dict()
    out.tables["table1"] = render_table1(suite.campaign.log)
    for name in spec.analyses:
        ANALYSES[name](suite.campaign, out)


def _execute_monitor_fraction(
    spec: ScenarioSpec,
    out: ScenarioResult,
    scale: float,
    seed: int,
    days: int,
    engine: ExposureEngine,
) -> None:
    """What-if: deploy only a fraction of the monitor fleet.

    A pure mask consumer: for each fraction of the (interleaved) fleet the
    mean daily coverage of the ground-truth population is a boolean union
    over the shared exposure's cached masks — no monitors, logs, or
    aggregates are materialised.
    """
    fractions = tuple(
        float(f)
        for f in spec.params.get(
            "fractions", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        )
    )
    if not fractions or min(fractions) <= 0 or max(fractions) > 1:
        raise ValueError("fractions must lie in (0, 1]")
    config = _campaign_config(spec, scale, seed, days, None)
    exposure = engine.get(
        config.population,
        campaign_observation_seed(config.seed),
        days=days,
    )
    monitors = config.monitors
    figure = FigureData(
        figure_id="scenario_monitor_fraction",
        title="Daily coverage vs deployed fraction of the monitor fleet",
        x_label="deployed fraction of fleet",
        y_label="mean daily coverage (%)",
    )
    coverage_series = figure.new_series("coverage of daily population")
    routers_series = figure.new_series("routers deployed")
    online = exposure.daily_online(days)
    counts = [max(1, int(round(fraction * len(monitors)))) for fraction in fractions]
    needed = set(counts)
    # Only the largest deployment's masks are ever consumed.
    exposure.prefetch_masks(monitors[: max(needed)], days)
    # One incremental union pass per day: each monitor's mask is OR-ed in
    # once, and coverage is snapshotted at every deployment size of
    # interest — instead of rebuilding the union per (fraction, day) pair.
    coverage_at: Dict[int, List[float]] = {count: [] for count in needed}
    for day in range(days):
        union = np.zeros(exposure.view(day).online_count, dtype=bool)
        for deployed, monitor_spec in enumerate(monitors[: max(needed)], start=1):
            union |= exposure.monitor_day_mask(monitor_spec, day)
            if deployed in needed:
                coverage_at[deployed].append(
                    int(np.count_nonzero(union)) / online[day] * 100.0
                    if online[day]
                    else 0.0
                )
    for fraction, count in zip(fractions, counts):
        coverage_series.add(fraction, float(np.mean(coverage_at[count])))
        routers_series.add(fraction, count)
    figure.add_note(
        f"fleet: {spec.fleet.floodfill} floodfill + "
        f"{spec.fleet.non_floodfill} non-floodfill at "
        f"{spec.fleet.shared_kbps:.0f} KB/s"
    )
    out.add_figure(figure)
    out.summaries["monitor_fraction"] = {
        "fleet_size": len(monitors),
        "full_fleet_coverage_pct": coverage_series.points[-1][1],
        "half_fleet_coverage_pct": next(
            (y for x, y in coverage_series.points if abs(x - 0.5) < 1e-9),
            None,
        ),
    }


def _execute_country_blocking(
    spec: ScenarioSpec,
    out: ScenarioResult,
    scale: float,
    seed: int,
    days: int,
    engine: ExposureEngine,
) -> None:
    """What-if: national GeoIP blocks instead of observed blacklists."""
    config = _campaign_config(spec, scale, seed, days, None)
    result = MeasurementCampaign(config, engine=engine).run()
    out.campaign = result
    countries = spec.params.get("countries")
    if not countries:
        # Default: the top observed countries, most-populated first.
        ranked = country_distribution(result.log).most_common(
            int(spec.params.get("top_n", 6))
        )
        countries = tuple(code for code, _ in ranked)
    out.add_figure(country_blocking_curve(result, tuple(countries)))
    out.summaries["country_blocking"] = {"countries": tuple(countries)}
    for name in spec.analyses:
        ANALYSES[name](result, out)


def _execute_prefix_blocking(
    spec: ScenarioSpec,
    out: ScenarioResult,
    scale: float,
    seed: int,
    days: int,
    engine: ExposureEngine,
) -> None:
    """What-if: prefix-granular censorship via the enrichment provider.

    Censor countries come from ``spec.params`` or default to the top
    observed countries; each censor's blocked-prefix set comes from the
    session-active enrichment provider (``--geo-provider``/``--geo-db``),
    so swapping in a compiled range database changes the censor profiles
    and the curve consistently.
    """
    from .blocking import censor_profiles

    config = _campaign_config(spec, scale, seed, days, None)
    result = MeasurementCampaign(config, engine=engine).run()
    out.campaign = result
    countries = spec.params.get("countries")
    if not countries:
        ranked = country_distribution(result.log).most_common(
            int(spec.params.get("top_n", 6))
        )
        countries = tuple(code for code, _ in ranked)
    countries = tuple(countries)
    out.add_figure(prefix_blocking_curve(result, countries))
    profiles = censor_profiles(countries)
    out.summaries["prefix_blocking"] = {
        "countries": countries,
        "prefix_counts": {
            profile.country: profile.prefix_count for profile in profiles
        },
        "total_prefixes": sum(profile.prefix_count for profile in profiles),
    }
    for name in spec.analyses:
        ANALYSES[name](result, out)


def _private_client_netdb(
    daily_population: int, population_seed: int, max_size: int, seed: int
) -> List[RouterInfo]:
    """A client netDb sampled from day 0 of a small private population.

    Reseeding and page loads need row-oriented RouterInfos, which the
    read-only exposure cache does not carry.
    """
    population = I2PPopulation(
        PopulationConfig(
            target_daily_population=daily_population,
            horizon_days=2,
            seed=population_seed,
        )
    )
    view = population.day_view(0)
    return client_netdb_from_dayview(
        population,
        view,
        size=min(max_size, max(50, view.online_count // 2)),
        rng=random.Random(seed),
    )


def _execute_reseed_denial(
    spec: ScenarioSpec,
    out: ScenarioResult,
    scale: float,
    seed: int,
    days: int,
    engine: ExposureEngine,
) -> None:
    """What-if: a cohort of new clients bootstrapping under reseed denial.

    Builds a bootstrap netDb from a small private population and sweeps
    the number of blocked reseed servers, with and without manual-reseed
    rescue.
    """
    clients = int(spec.params.get("clients", 200))
    manual_share = float(spec.params.get("manual_reseed_share", 0.25))
    routerinfos = _private_client_netdb(
        max(200, int(round(2000 * scale * 4))),
        seed + 11,
        int(spec.params.get("netdb_size", 400)),
        seed,
    )
    figure = reseed_blocking_curve(
        routerinfos,
        clients=clients,
        manual_reseed_share=manual_share,
        seed=seed,
    )
    out.add_figure(figure)
    no_rescue = figure.get("no manual reseed")
    out.summaries["reseed_denial"] = {
        "cohort_clients": clients,
        "manual_reseed_share": manual_share,
        "netdb_routerinfos": len(routerinfos),
        "fully_blocked_success_pct": no_rescue.points[-1][1],
    }


#: Figure 14's blocking rates (share of the client's known peer IPs).
_USABILITY_BLOCKING_RATES = (0.0, 0.65, 0.71, 0.77, 0.83, 0.89, 0.95)


def _execute_usability(
    spec: ScenarioSpec,
    out: ScenarioResult,
    scale: float,
    seed: int,
    days: int,
    engine: ExposureEngine,
) -> None:
    """Figure 14: page loads from a stable client under IP blocking.

    Builds the client's netDb from a small private population, then
    null-routes a growing share of its peer IPs and simulates
    ``params.fetches`` page loads per blocking rate.
    """
    netdb = _private_client_netdb(
        max(500, int(30_500 * scale * 0.5)), seed + 1, 600, seed
    )
    out.add_figure(
        usability_curve(
            netdb,
            blocking_rates=_USABILITY_BLOCKING_RATES,
            fetches_per_rate=int(spec.params.get("fetches", 10)),
            seed=seed,
        )
    )


def _execute_netdb_scale(
    spec: ScenarioSpec,
    out: ScenarioResult,
    scale: float,
    seed: int,
    days: int,
    engine: ExposureEngine,
) -> None:
    """netDb message-plane throughput sweep (routers vs DSMs/second).

    A message-level scenario: it stands up real simulated networks on
    the batched netDb plane instead of consuming the exposure cache.
    ``spec.router_count`` (or ``repro run --router-count``) pins the
    sweep to a single network size.
    """
    from ..sim.netdb_scale import DEFAULT_ROUTER_COUNTS, measure_netdb_scale

    if spec.router_count is not None:
        counts: Tuple[int, ...] = (int(spec.router_count),)
    else:
        counts = tuple(
            int(c) for c in spec.params.get("router_counts", DEFAULT_ROUTER_COUNTS)
        )
    if not counts or min(counts) < 2:
        raise ValueError("router_counts must contain sizes of at least 2")
    figure = FigureData(
        figure_id="scenario_netdb_scale",
        title="netDb publish throughput vs network size",
        x_label="routers",
        y_label="DatabaseStoreMessages / second",
    )
    throughput = figure.new_series("batched message plane")
    per_round = figure.new_series("messages per publish round")
    summary: Dict[str, object] = {}
    for count in counts:
        point = measure_netdb_scale(
            count,
            floodfill_fraction=float(spec.params.get("floodfill_fraction", 0.1)),
            seed=seed,
            convergence_rounds=int(spec.params.get("convergence_rounds", 3)),
            warmup_limit=int(spec.params.get("warmup_limit", 16)),
            measure_rounds=int(spec.params.get("measure_rounds", 5)),
        )
        throughput.add(count, point.messages_per_second)
        per_round.add(count, point.messages_per_round)
        summary[str(count)] = point.as_dict()
    figure.add_note(
        "steady-state publish rounds on the batched message plane; "
        "median round time over the measured window"
    )
    out.add_figure(figure)
    out.summaries["netdb_scale"] = summary


def _execute_fault_injection(
    spec: ScenarioSpec,
    out: ScenarioResult,
    scale: float,
    seed: int,
    days: int,
    engine: ExposureEngine,
) -> None:
    """netDb degradation under a deterministic fault plan.

    A message-level scenario: it converges a real simulated network,
    attaches the :class:`~repro.sim.faults.FaultPlan` described by
    ``spec.params``, and records per-round publish success, lookup
    latency, and netDb coverage while the plan's failure windows open
    and close.  ``spec.router_count`` (or ``repro run --router-count``)
    pins the network size.
    """
    from ..sim.faults import measure_degradation, scenario_fault_plan

    router_count = int(
        spec.router_count
        if spec.router_count is not None
        else spec.params.get("router_count", 300)
    )
    if router_count < 2:
        raise ValueError("router count must be at least 2")
    round_hours = float(spec.params.get("round_hours", 0.25))
    plan = scenario_fault_plan(spec.params, round_seconds=round_hours * 3600.0)
    result = measure_degradation(
        plan,
        router_count=router_count,
        floodfill_fraction=float(spec.params.get("floodfill_fraction", 0.1)),
        seed=seed,
        convergence_rounds=int(spec.params.get("convergence_rounds", 3)),
        rounds=int(spec.params.get("rounds", 24)),
        round_hours=round_hours,
        lookup_probes=int(spec.params.get("lookup_probes", 8)),
        joiners_per_round=int(spec.params.get("joiners_per_round", 0)),
    )
    figure = FigureData(
        figure_id="scenario_fault_injection",
        title=f"netDb degradation under faults ({spec.name})",
        x_label="publish round",
        y_label="ratio",
    )
    success = figure.new_series("publish success ratio")
    coverage = figure.new_series("netDb coverage")
    for sample in result.samples:
        success.add(sample.round_index, sample.publish_success_ratio)
        coverage.add(sample.round_index, sample.netdb_coverage)
    figure.add_note(
        "publish success = publishers reaching full flood redundancy that "
        "round; coverage = mean fraction of the network present per "
        "floodfill netDb"
    )
    out.add_figure(figure)
    out.summaries["fault_injection"] = result.summary()


#: Kinds whose execution has no campaign day horizon (a ``days`` override
#: would silently change nothing, so ``run_scenario`` rejects it).
_DAYLESS_KINDS = {"reseed_denial", "usability", "netdb_scale", "fault_injection"}

_EXECUTORS: Dict[
    str,
    Callable[[ScenarioSpec, ScenarioResult, float, int, int, ExposureEngine], None],
] = {
    "campaign": _execute_campaign,
    "mode_switch": _execute_mode_switch,
    "bandwidth_sweep": _execute_bandwidth_sweep,
    "router_sweep": _execute_router_sweep,
    "suite": _execute_suite,
    "monitor_fraction": _execute_monitor_fraction,
    "country_blocking": _execute_country_blocking,
    "prefix_blocking": _execute_prefix_blocking,
    "reseed_denial": _execute_reseed_denial,
    "usability": _execute_usability,
    "netdb_scale": _execute_netdb_scale,
    "fault_injection": _execute_fault_injection,
}


# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #
#: Kinds that consume :attr:`ScenarioSpec.router_count` (a
#: ``--router-count`` override is rejected for the others).
_ROUTER_COUNT_KINDS = {"netdb_scale", "fault_injection"}

#: Kinds whose executor resolves a shared exposure.  Everything else is
#: message-level (or builds its own private population) and has no
#: exposure-cache digest.
_EXPOSURE_KINDS = {
    "campaign",
    "mode_switch",
    "bandwidth_sweep",
    "router_sweep",
    "suite",
    "monitor_fraction",
    "country_blocking",
    "prefix_blocking",
}


def scenario_exposure_digest(
    scenario: object, scale: float = 1.0, seed: int = 2018
) -> Optional[str]:
    """The exposure-cache digest ``run_scenario`` will resolve through.

    Every exposure-consuming executor keys the cache on
    ``scaled_population_config(scale, days=D, seed=seed)`` plus the derived
    observation seed, where ``D`` is the spec's day horizon (``mode_switch``
    runs ``2 x days_per_mode`` days).  Reporting that digest *before*
    execution lets the campaign service plan a grid as digest groups —
    every job in a group shares one ``SharedExposure`` build.  Returns
    ``None`` for kinds that never touch the exposure plane.
    """
    from ..sim.exposure_cache import exposure_digest

    spec = resolve_scenario(scenario)
    if spec.kind not in _EXPOSURE_KINDS:
        return None
    days = spec.days
    if spec.kind == "mode_switch":
        days = 2 * int(spec.params.get("days_per_mode", max(1, spec.days // 2)))
    config = scaled_population_config(scale, days=days, seed=seed)
    return exposure_digest(config, campaign_observation_seed(seed))


def resolve_scenario(
    scenario: object,
    days: Optional[int] = None,
    router_count: Optional[int] = None,
    scale: Optional[float] = None,
) -> ScenarioSpec:
    """Resolve a name or spec to a validated, adjusted :class:`ScenarioSpec`.

    Raises ``KeyError`` for unknown names, ``TypeError`` for wrong types,
    and ``ValueError`` for invalid kinds / day / router-count overrides or
    a non-positive population ``scale`` — the user-input errors a CLI
    wants to catch, separated from execution itself.
    """
    if scale is not None and not scale > 0:
        raise ValueError("scale must be positive")
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if not isinstance(spec, ScenarioSpec):
        raise TypeError("scenario must be a registered name or a ScenarioSpec")
    if spec.kind not in _EXECUTORS:
        raise ValueError(f"unknown scenario kind {spec.kind!r}")
    if (spec.days if days is None else days) <= 0:
        raise ValueError("days must be positive")
    if days is not None:
        if spec.kind in _DAYLESS_KINDS:
            raise ValueError(
                f"scenario kind {spec.kind!r} has no day horizon; "
                f"the days override does not apply"
            )
        spec = replace(spec, days=days)
    if router_count is not None:
        if spec.kind not in _ROUTER_COUNT_KINDS:
            raise ValueError(
                f"scenario kind {spec.kind!r} has no simulated-network size; "
                f"the router-count override does not apply"
            )
        if router_count < 2:
            raise ValueError("router count must be at least 2")
        spec = replace(spec, router_count=router_count)
    return spec


def run_scenario(
    scenario: object,
    scale: float = 1.0,
    seed: int = 2018,
    days: Optional[int] = None,
    engine: Optional[ExposureEngine] = None,
    router_count: Optional[int] = None,
) -> ScenarioResult:
    """Execute one scenario (by name or spec) and collect its outputs.

    ``days`` overrides the spec's default horizon; ``router_count`` the
    simulated-network size of message-level kinds; ``engine`` an existing
    exposure engine (so several scenarios share populations, or the
    cross-process bundle cache is used: ``ExposureEngine(cache_dir=...)``).
    """
    spec = resolve_scenario(scenario, days, router_count, scale)
    if engine is None:
        engine = ExposureEngine()
    out = ScenarioResult(
        spec=spec,
        scale=scale,
        seed=seed,
        engine=engine,
        exposure_digest=scenario_exposure_digest(spec, scale=scale, seed=seed),
    )
    _EXECUTORS[spec.kind](spec, out, scale, seed, spec.days, engine)
    return out


# --------------------------------------------------------------------------- #
# The registered scenario catalogue
# --------------------------------------------------------------------------- #
register_scenario(
    ScenarioSpec(
        name="main_campaign",
        description="The paper's 20-router, 90-day main campaign with the "
        "full Section 5/6 analysis pipeline (Figures 5-13)",
        kind="campaign",
        days=90,
        collect_daily_ips=True,
        include_victim=True,
        analyses=(
            "population",
            "longevity",
            "ip_churn",
            "capacity",
            "geography",
            "blocking",
            "bridges",
            "summary",
        ),
    )
)
register_scenario(
    ScenarioSpec(
        name="single_router",
        description="Figure 2 calibration: one high-end router, floodfill "
        "for five days then non-floodfill for five",
        kind="mode_switch",
        days=10,
        fleet=FleetSpec(floodfill=1, non_floodfill=0),
    )
)
register_scenario(
    ScenarioSpec(
        name="bandwidth_sweep",
        description="Figure 3: observed peers vs shared bandwidth for "
        "floodfill/non-floodfill pairs (128 KB/s - 5 MB/s)",
        kind="bandwidth_sweep",
        days=3,
    )
)
register_scenario(
    ScenarioSpec(
        name="router_count_sweep",
        description="Figure 4: cumulative peers observed while operating "
        "1-40 monitoring routers",
        kind="router_sweep",
        days=5,
        fleet=FleetSpec(floodfill=20, non_floodfill=20),
        params={"max_routers": 40},
    )
)
register_scenario(
    ScenarioSpec(
        name="figure_suite",
        description="The whole figure pipeline (campaign + Figures 2-4 + "
        "heavy analyses) off ONE shared exposure",
        kind="suite",
        days=10,
        analyses=("summary",),
        params={"max_routers": 40, "sweep_days": 3, "router_sweep_days": 5},
    )
)
register_scenario(
    ScenarioSpec(
        name="monitor_fraction_sweep",
        description="What-if: coverage of the daily population when only a "
        "fraction of the 20-router fleet is deployed",
        kind="monitor_fraction",
        days=5,
    )
)
register_scenario(
    ScenarioSpec(
        name="country_blocking",
        description="What-if: country-level GeoIP blocking - victim netDb "
        "loss under cumulative national address blocks",
        kind="country_blocking",
        days=10,
        # The GeoIP censor needs no fleet blacklists — only the victim's
        # netDb, and the victim client always collects daily IPs.
        include_victim=True,
    )
)
register_scenario(
    ScenarioSpec(
        name="prefix-blocking",
        description="What-if: prefix-granular censorship - victim netDb "
        "loss as national censors block their CIDR prefixes (enrichment "
        "provider supplies the censor profiles)",
        kind="prefix_blocking",
        days=10,
        # Like the GeoIP censor: only the victim's netDb is consumed.
        include_victim=True,
    )
)
register_scenario(
    ScenarioSpec(
        name="netdb-scale",
        description="netDb message-plane throughput sweep: DSMs/second at "
        "300 / 1000 / 10000 routers on the batched plane",
        kind="netdb_scale",
        days=1,
        params={"router_counts": (300, 1000, 10000)},
    )
)
register_scenario(
    ScenarioSpec(
        name="floodfill-takedown",
        description="Fault injection: half the floodfills crash for rounds "
        "8-16 - publish success drops, then recovers after restart",
        kind="fault_injection",
        days=1,
        params={
            "crash_fraction": 0.5,
            "outage_start_round": 8,
            "outage_end_round": 16,
            "rounds": 24,
        },
    )
)
register_scenario(
    ScenarioSpec(
        name="reseed-outage",
        description="Fault injection: every reseed server is unreachable "
        "for rounds 6-14 while new routers keep trying to join",
        kind="fault_injection",
        days=1,
        params={
            "reseed_fraction": 1.0,
            "outage_start_round": 6,
            "outage_end_round": 14,
            "rounds": 20,
            "joiners_per_round": 3,
        },
    )
)
register_scenario(
    ScenarioSpec(
        name="lossy-network",
        description="Fault injection: 20% iid message loss on every link "
        "for the whole run - retries and timeouts absorb the loss",
        kind="fault_injection",
        days=1,
        params={"drop_probability": 0.2, "rounds": 16},
    )
)
register_scenario(
    ScenarioSpec(
        name="reseed_denial",
        description="What-if: new-client cohort under reseed-server denial, "
        "with and without manual i2pseeds.su3 rescue",
        kind="reseed_denial",
        days=1,
    )
)
register_scenario(
    ScenarioSpec(
        name="usability",
        description="Figure 14: timed-out requests and page-load latency as "
        "a growing share of a client's known peer IPs is blocked",
        kind="usability",
        days=1,
    )
)
