"""Probabilistic address-based blocking model (Section 6.2, Figure 13).

The model has two sides:

* a **censor** operating *k* monitoring routers inside the network.  Every
  peer IP address the censor observes is added to a blacklist; the blacklist
  can retain addresses for a configurable number of days (the paper
  evaluates windows of 1, 5, 10, 20, and 30 days);
* a **victim**: a long-term, stable I2P client whose netDb contains the
  RouterInfos (and therefore the peer IPs) it needs to build tunnels.

The *blocking rate* is the fraction of the victim's known peer IPs that
also appear in the censor's blacklist — precisely the paper's metric
("the rate of peer IP addresses seen in the netDb of the victim, which can
also be found in the netDb of routers that are controlled by the censor").

Addresses are integer keys (:mod:`repro.sim.addresses`): the victim's
netDb is a sorted key array, and a censor's blacklist is evaluated as a
boolean mask over those keys (:func:`censor_coverage`), never as a set of
strings.  :func:`censor_blacklist` and :func:`victim_known_ips` format
strings for callers that want them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis.series import FigureData
from ..enrichment.base import GeoProvider
from ..enrichment.provider import resolve_provider
from ..enrichment.radix import PrefixIndex
from ..sim.addresses import IPV6_KEY_BASE, format_addresses
from ..sim.geo import GeoRegistry
from .campaign import CampaignResult
from .monitor import MonitoringRouter, day_coverage

__all__ = [
    "BlockingAssessment",
    "CensorProfile",
    "blocking_rate",
    "censor_blacklist",
    "censor_coverage",
    "victim_known_ips",
    "blocking_assessment",
    "blocking_curve",
    "country_blocking_curve",
    "censor_profiles",
    "prefix_blocking_curve",
]


def blocking_rate(censor_ips: Set[str], victim_ips: Set[str]) -> float:
    """Fraction of the victim's known peer IPs covered by the censor."""
    if not victim_ips:
        return 0.0
    return len(censor_ips & victim_ips) / len(victim_ips)


def _validate_router_count(
    monitors: Sequence[MonitoringRouter], router_count: int
) -> None:
    if router_count <= 0:
        raise ValueError("router_count must be positive")
    if router_count > len(monitors):
        raise ValueError(
            f"censor has only {len(monitors)} routers, requested {router_count}"
        )


def censor_blacklist(
    monitors: Sequence[MonitoringRouter],
    router_count: int,
    evaluation_day: int,
    window_days: int,
) -> Set[str]:
    """The censor's blacklist using its first ``router_count`` routers and a
    ``window_days``-day retention window ending on ``evaluation_day``."""
    keys = _censor_keys(monitors, router_count, evaluation_day, window_days)
    return set(format_addresses(keys).tolist())


def _censor_keys(
    monitors: Sequence[MonitoringRouter],
    router_count: int,
    evaluation_day: int,
    window_days: int,
) -> np.ndarray:
    """:func:`censor_blacklist` as sorted unique address keys."""
    _validate_router_count(monitors, router_count)
    censors = monitors[:router_count]
    windows = [m.keys_in_window(evaluation_day, window_days) for m in censors]
    return np.unique(np.concatenate(windows))


def _daily_coverage(
    monitors: Sequence[MonitoringRouter],
    evaluation_day: int,
    window_days: int,
    subject: np.ndarray,
) -> Dict[int, np.ndarray]:
    """Per day of the window: which ``subject`` keys each monitor observed
    (``(len(monitors), subject.size)`` boolean matrices)."""
    days = set()
    for monitor in monitors:
        days.update(monitor.window_range(evaluation_day, window_days))
    sets = [monitor.daily_ip_sets for monitor in monitors]
    return {day: day_coverage(sets, day, subject) for day in sorted(days)}


def censor_coverage(
    monitors: Sequence[MonitoringRouter],
    router_count: int,
    evaluation_day: int,
    window_days: int,
    subject: np.ndarray,
) -> np.ndarray:
    """Which of the sorted unique ``subject`` keys :func:`censor_blacklist`
    holds, as a boolean mask over ``subject``."""
    _validate_router_count(monitors, router_count)
    covered = np.zeros(subject.size, dtype=bool)
    for per_monitor in _daily_coverage(
        monitors[:router_count], evaluation_day, window_days, subject
    ).values():
        covered |= np.logical_or.reduce(per_monitor, axis=0)
    return covered


def victim_known_ips(
    victim: MonitoringRouter, evaluation_day: int, history_days: int = 7
) -> Set[str]:
    """The peer IPs present in the victim's netDb on the evaluation day.

    A stable client accumulates RouterInfos over its recent participation;
    ``history_days`` bounds how far back entries are retained (RouterInfos
    of long-gone peers are eventually dropped from the netDb).
    """
    return victim.ips_in_window(evaluation_day, history_days)


@dataclass(frozen=True)
class BlockingAssessment:
    """One evaluated censor configuration."""

    router_count: int
    window_days: int
    evaluation_day: int
    censor_ip_count: int
    victim_ip_count: int
    blocked_ip_count: int
    rate: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "router_count": self.router_count,
            "window_days": self.window_days,
            "evaluation_day": self.evaluation_day,
            "censor_ip_count": self.censor_ip_count,
            "victim_ip_count": self.victim_ip_count,
            "blocked_ip_count": self.blocked_ip_count,
            "rate": self.rate,
        }


def blocking_assessment(
    result: CampaignResult,
    router_count: int,
    window_days: int = 1,
    evaluation_day: Optional[int] = None,
    victim_history_days: int = 2,
) -> BlockingAssessment:
    """Evaluate one (router count, blacklist window) censor configuration."""
    if result.victim is None:
        raise ValueError("the campaign was run without a victim client")
    if evaluation_day is None:
        evaluation_day = len(result.log.daily) - 1
    censor = _censor_keys(result.monitors, router_count, evaluation_day, window_days)
    victim = result.victim.keys_in_window(evaluation_day, victim_history_days)
    blocked = int(np.count_nonzero(np.isin(victim, censor, assume_unique=True)))
    return BlockingAssessment(
        router_count=router_count,
        window_days=window_days,
        evaluation_day=evaluation_day,
        censor_ip_count=int(censor.size),
        victim_ip_count=int(victim.size),
        blocked_ip_count=blocked,
        rate=blocked / victim.size if victim.size else 0.0,
    )


def blocking_curve(
    result: CampaignResult,
    router_counts: Optional[Sequence[int]] = None,
    windows: Sequence[int] = (1, 5, 10, 20, 30),
    evaluation_day: Optional[int] = None,
    victim_history_days: int = 2,
) -> FigureData:
    """Figure 13: blocking rate vs censor routers, one series per window.

    Each (monitor, day) is matched against the victim's address keys once;
    a window ORs its days, and the blacklists of growing router counts are
    the running OR down the fleet, so N router counts cost no more than
    one.  A window longer than the recorded history uses whatever history
    exists (a censor that started collecting late).  Points are emitted in
    the caller's ``router_counts`` order.
    """
    if result.victim is None:
        raise ValueError("the campaign was run without a victim client")
    if router_counts is None:
        router_counts = list(range(1, len(result.monitors) + 1))
    if evaluation_day is None:
        evaluation_day = len(result.log.daily) - 1
    if min(windows) <= 0:
        raise ValueError("window_days must be positive")

    figure = FigureData(
        figure_id="figure_13",
        title="Blocking rates under different blacklist time windows",
        x_label="routers under censor control",
        y_label="blocking rate (%)",
    )
    victim_keys = result.victim.keys_in_window(evaluation_day, victim_history_days)
    total = int(victim_keys.size)
    figure.add_note(
        f"victim netDb: {total} peer IPs "
        f"(history window {victim_history_days} days, evaluation day {evaluation_day + 1})"
    )
    counts = [int(count) for count in router_counts]
    for count in counts:
        _validate_router_count(result.monitors, count)
    max_count = max(counts, default=0)
    per_day = _daily_coverage(
        result.monitors[:max_count], evaluation_day, max(windows), victim_keys
    )
    for window in windows:
        series = figure.new_series(f"{window} day" + ("s" if window > 1 else ""))
        covered = np.zeros((max_count, total), dtype=bool)
        for day, per_monitor in per_day.items():
            if day > evaluation_day - window:
                covered |= per_monitor
        blocked = np.count_nonzero(np.logical_or.accumulate(covered, axis=0), axis=1)
        for count in counts:
            rate = int(blocked[count - 1]) / total if total else 0.0
            series.add(count, rate * 100.0)
    return figure


def country_blocking_curve(
    result: CampaignResult,
    countries: Sequence[str],
    evaluation_day: Optional[int] = None,
    victim_history_days: int = 2,
    registry: Optional[GeoRegistry] = None,
    provider: Optional[GeoProvider] = None,
) -> FigureData:
    """Country-level (GeoIP) blocking: netDb loss under national address blocks.

    Models a censor that blocks by *geolocation* instead of an observed
    blacklist: every address that resolves to a blocked country is
    unreachable, no in-network monitoring required.  For each prefix of
    ``countries`` the curve reports the fraction of the victim client's
    known peer IPs that the combined country block removes — the
    country-level analogue of Figure 13's address-blacklist rates.
    """
    if result.victim is None:
        raise ValueError("the campaign was run without a victim client")
    if not countries:
        raise ValueError("at least one country is required")
    if evaluation_day is None:
        evaluation_day = len(result.log.daily) - 1
    geo = resolve_provider(registry, provider)
    victim_ips = victim_known_ips(result.victim, evaluation_day, victim_history_days)
    figure = FigureData(
        figure_id="scenario_country_blocking",
        title="Victim netDb loss under country-level address blocking",
        x_label="countries blocked (cumulative)",
        y_label="victim netDb IPs blocked (%)",
    )
    per_country = figure.new_series("single country")
    cumulative = figure.new_series("cumulative block")
    country_of: Dict[str, Optional[str]] = {
        ip: geo.lookup(ip).country for ip in victim_ips
    }
    total = len(victim_ips)
    blocked_cumulative: Set[str] = set()
    for rank, country in enumerate(countries, start=1):
        in_country = {ip for ip, code in country_of.items() if code == country}
        blocked_cumulative |= in_country
        per_country.add(rank, (len(in_country) / total * 100.0) if total else 0.0)
        cumulative.add(
            rank, (len(blocked_cumulative) / total * 100.0) if total else 0.0
        )
    figure.add_note(
        "countries by rank: "
        + " ".join(f"{rank}:{code}" for rank, code in enumerate(countries, start=1))
    )
    figure.add_note(
        f"victim netDb: {total} peer IPs (evaluation day {evaluation_day + 1})"
    )
    return figure


# --------------------------------------------------------------------------- #
# Prefix-granular censorship (the enrichment plane's blocking model)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CensorProfile:
    """One national censor's block policy: a set of CIDR prefixes.

    Real-world blocking operates at announcement granularity — a censor
    null-routes or filters the prefixes originating in (or serving) its
    jurisdiction, not individual addresses.  The profile carries the
    prefixes the enrichment provider attributes to the censor's country.
    """

    country: str
    prefixes: Tuple[str, ...]

    @property
    def prefix_count(self) -> int:
        return len(self.prefixes)


def censor_profiles(
    countries: Sequence[str],
    registry: Optional[GeoRegistry] = None,
    provider: Optional[GeoProvider] = None,
) -> List[CensorProfile]:
    """Per-country censor profiles from the enrichment provider's tables."""
    if not countries:
        raise ValueError("at least one country is required")
    geo = resolve_provider(registry, provider)
    return [
        CensorProfile(country=country, prefixes=geo.country_prefixes(country))
        for country in countries
    ]


def prefix_blocking_curve(
    result: CampaignResult,
    countries: Sequence[str],
    evaluation_day: Optional[int] = None,
    victim_history_days: int = 2,
    registry: Optional[GeoRegistry] = None,
    provider: Optional[GeoProvider] = None,
) -> FigureData:
    """Victim netDb loss under prefix-granular censorship.

    The prefix-level analogue of :func:`country_blocking_curve`: each
    censor blocks the CIDR prefixes its country originates (its
    :class:`CensorProfile`), and membership is evaluated with the
    longest-prefix-match index over the victim's known peer addresses.
    The x axis is the *cumulative number of blocked prefixes* as censors
    join the blocking coalition in the given order; the two series report
    each censor's own coverage and the coalition's combined coverage of
    the victim's netDb.
    """
    if result.victim is None:
        raise ValueError("the campaign was run without a victim client")
    if evaluation_day is None:
        evaluation_day = len(result.log.daily) - 1
    profiles = censor_profiles(countries, registry, provider)
    victim_keys = result.victim.keys_in_window(evaluation_day, victim_history_days)
    total = int(victim_keys.size)
    # IPv6 addresses fall outside an IPv4 prefix block: they stay reachable
    # and only contribute to the denominator.  An IPv4 key is the address's
    # 32-bit value.
    addrs = victim_keys[victim_keys < IPV6_KEY_BASE].astype(np.uint32)

    figure = FigureData(
        figure_id="scenario_prefix_blocking",
        title="Victim netDb loss under prefix-granular censorship",
        x_label="prefixes blocked (cumulative)",
        y_label="victim netDb IPs blocked (%)",
    )
    per_censor = figure.new_series("single censor")
    cumulative = figure.new_series("cumulative block")
    blocked = np.zeros(addrs.size, dtype=bool)
    prefix_cursor = 0
    labels: List[str] = []
    for rank, profile in enumerate(profiles, start=1):
        if profile.prefixes and addrs.size:
            index = PrefixIndex((prefix, 1) for prefix in profile.prefixes)
            own = index.lookup_batch(addrs) != 0
        else:
            own = np.zeros(addrs.size, dtype=bool)
        blocked |= own
        prefix_cursor += profile.prefix_count
        per_censor.add(
            prefix_cursor, (int(own.sum()) / total * 100.0) if total else 0.0
        )
        cumulative.add(
            prefix_cursor, (int(blocked.sum()) / total * 100.0) if total else 0.0
        )
        labels.append(f"{rank}:{profile.country}({profile.prefix_count})")
    figure.add_note("censors by rank (prefixes): " + " ".join(labels))
    figure.add_note(
        f"victim netDb: {total} peer IPs (evaluation day {evaluation_day + 1})"
    )
    return figure
