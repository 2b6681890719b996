"""Network usability under address-based blocking (Section 6.2.3, Figure 14).

The paper configures its upstream router to null-route (silently drop)
packets towards blocked peer IPs, hosts three small test eepsites, and
measures the page-load time and the fraction of timed-out requests as the
blocking rate increases.  Reported behaviour: ~3.4 s page loads without
blocking, >20 s and ~40 % timeouts at a 65 % blocking rate, >40 s and >60 %
timeouts between 70 % and 90 %, and a practically unusable network above
90 % (95–100 % of requests time out).

The model here reproduces the client-side mechanics that produce that
shape:

* loading an eepsite requires an outbound and an inbound client tunnel, a
  LeaseSet lookup at a floodfill, and the HTTP round trip through the
  tunnels;
* the censor's null-routing only affects the victim's *direct* connections,
  i.e. the tunnel hop adjacent to the client and the floodfill it queries
  directly; blocked peers silently drop, so each failed attempt costs a
  timeout before the client retries with another peer;
* the whole page load is abandoned after a 60-second deadline (the HTTP
  proxy returns 504, counted as a timed-out request).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis.series import FigureData
from ..netdb.routerinfo import RouterInfo
from ..sim.peer import build_routerinfo
from ..sim.population import DayView, I2PPopulation
from ..sim.tunnels import PeerSelector

__all__ = [
    "PageLoadConfig",
    "PageLoadResult",
    "EepsiteFetchModel",
    "client_netdb_from_dayview",
    "usability_curve",
]


@dataclass(frozen=True)
class PageLoadConfig:
    """Timing parameters of the page-load model (seconds)."""

    hop_latency: float = 0.35
    build_timeout: float = 8.0
    lookup_latency: float = 0.5
    lookup_timeout: float = 4.0
    http_round_trip: float = 1.2
    deadline: float = 60.0
    tunnels_required: int = 2
    tunnel_length: int = 2
    max_lookup_attempts: int = 3


@dataclass
class PageLoadResult:
    """Outcome of one simulated eepsite request."""

    seconds: float
    timed_out: bool
    tunnel_build_attempts: int
    lookup_attempts: int

    @property
    def http_status(self) -> int:
        return 504 if self.timed_out else 200


class EepsiteFetchModel:
    """Simulates eepsite page loads from a client with a given netDb."""

    def __init__(
        self,
        netdb: Sequence[RouterInfo],
        config: Optional[PageLoadConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not netdb:
            raise ValueError("the client netDb must contain at least one RouterInfo")
        self.netdb = list(netdb)
        self.config = config or PageLoadConfig()
        self._rng = rng or random.Random()
        self._selector = PeerSelector(self._rng)
        self._floodfills = [info for info in self.netdb if info.is_floodfill]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _is_blocked(info: RouterInfo, blocked_ips: Set[str]) -> bool:
        ips = set(info.ip_addresses)
        return bool(ips) and ips.issubset(blocked_ips)

    def _build_tunnel(
        self, blocked_ips: Set[str], budget: float
    ) -> Tuple[bool, float, int]:
        """Build one client tunnel within a time budget.

        Only the hop adjacent to the client needs direct reachability; a
        blocked adjacent hop silently drops the build request and the
        attempt times out.
        Returns (succeeded, elapsed, attempts).
        """
        cfg = self.config
        elapsed = 0.0
        attempts = 0
        while elapsed < budget:
            attempts += 1
            hops = self._selector.select_hops(self.netdb, cfg.tunnel_length)
            if len(hops) < cfg.tunnel_length:
                return False, budget, attempts
            elapsed += cfg.hop_latency * cfg.tunnel_length
            adjacent = hops[0]
            if self._is_blocked(adjacent, blocked_ips):
                elapsed += cfg.build_timeout
                continue
            elapsed += cfg.hop_latency
            return True, elapsed, attempts
        return False, budget, attempts

    def _lookup_leaseset(
        self, blocked_ips: Set[str], budget: float
    ) -> Tuple[bool, float, int]:
        """Resolve the eepsite's LeaseSet through a directly queried floodfill."""
        cfg = self.config
        candidates = self._floodfills or self.netdb
        elapsed = 0.0
        attempts = 0
        while attempts < cfg.max_lookup_attempts and elapsed < budget:
            attempts += 1
            target = self._rng.choice(candidates)
            if self._is_blocked(target, blocked_ips):
                elapsed += cfg.lookup_timeout
                continue
            elapsed += cfg.lookup_latency
            return True, elapsed, attempts
        return False, min(elapsed, budget), attempts

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def fetch(self, blocked_ips: Optional[Set[str]] = None) -> PageLoadResult:
        """Simulate one page load; returns timing and timeout status."""
        blocked_ips = blocked_ips or set()
        cfg = self.config
        elapsed = 0.0
        tunnel_attempts = 0

        for _ in range(cfg.tunnels_required):
            ok, spent, attempts = self._build_tunnel(
                blocked_ips, cfg.deadline - elapsed
            )
            elapsed += spent
            tunnel_attempts += attempts
            if not ok or elapsed >= cfg.deadline:
                return PageLoadResult(
                    seconds=min(elapsed, cfg.deadline),
                    timed_out=True,
                    tunnel_build_attempts=tunnel_attempts,
                    lookup_attempts=0,
                )

        ok, spent, lookup_attempts = self._lookup_leaseset(
            blocked_ips, cfg.deadline - elapsed
        )
        elapsed += spent
        if not ok or elapsed >= cfg.deadline:
            return PageLoadResult(
                seconds=min(elapsed, cfg.deadline),
                timed_out=True,
                tunnel_build_attempts=tunnel_attempts,
                lookup_attempts=lookup_attempts,
            )

        elapsed += cfg.http_round_trip
        timed_out = elapsed >= cfg.deadline
        return PageLoadResult(
            seconds=min(elapsed, cfg.deadline),
            timed_out=timed_out,
            tunnel_build_attempts=tunnel_attempts,
            lookup_attempts=lookup_attempts,
        )

    def fetch_many(
        self, count: int, blocked_ips: Optional[Set[str]] = None
    ) -> List[PageLoadResult]:
        return [self.fetch(blocked_ips) for _ in range(count)]


def client_netdb_from_dayview(
    population: I2PPopulation,
    view: DayView,
    size: int,
    rng: Optional[random.Random] = None,
) -> List[RouterInfo]:
    """Build a realistic client netDb from one day of the synthetic network.

    Entries are sampled with a bias towards well-integrated peers (the same
    capacity-driven bias a real client's netDb exhibits) and materialised as
    RouterInfos via :func:`repro.sim.peer.build_routerinfo`.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    rng = rng or random.Random(0)
    snapshots = view.snapshots
    if not snapshots:
        raise ValueError("the day view contains no online peers")
    weights = [max(0.01, s.base_visibility) for s in snapshots]
    total = sum(weights)
    netdb: List[RouterInfo] = []
    chosen: Set[bytes] = set()
    attempts = 0
    limit = size * 20
    while len(netdb) < min(size, len(snapshots)) and attempts < limit:
        attempts += 1
        point = rng.random() * total
        acc = 0.0
        for snapshot, weight in zip(snapshots, weights):
            acc += weight
            if point <= acc:
                if snapshot.peer_id not in chosen:
                    chosen.add(snapshot.peer_id)
                    identity = population.peer(snapshot.peer_id).identity
                    netdb.append(
                        build_routerinfo(snapshot, identity, published_at=float(view.day))
                    )
                break
    return netdb


def usability_curve(
    netdb: Sequence[RouterInfo],
    blocking_rates: Sequence[float] = (
        0.0, 0.65, 0.67, 0.69, 0.71, 0.73, 0.75, 0.77, 0.79, 0.81,
        0.83, 0.85, 0.87, 0.89, 0.91, 0.93, 0.95, 0.97,
    ),
    fetches_per_rate: int = 10,
    config: Optional[PageLoadConfig] = None,
    seed: int = 0,
) -> FigureData:
    """Figure 14: timed-out requests and page-load latency vs blocking rate.

    For each blocking rate the corresponding fraction of the client's known
    peer IPs is null-routed (chosen uniformly at random, as the censor
    blocks addresses regardless of their role), then ``fetches_per_rate``
    page loads are simulated.
    """
    if fetches_per_rate < 1:
        raise ValueError("fetches_per_rate must be at least 1")
    rng = random.Random(seed)
    known_ips = sorted({ip for info in netdb for ip in info.ip_addresses})
    if not known_ips:
        raise ValueError("the client netDb exposes no peer IPs to block")

    figure = FigureData(
        figure_id="figure_14",
        title="Timed-out requests and page-load latency under blocking",
        x_label="blocking rate (%)",
        y_label="timeouts (%) / page load time (s)",
    )
    timeout_series = figure.new_series("timed out requests (%)")
    latency_series = figure.new_series("page load time (s)")

    for rate in blocking_rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("blocking rates must be within [0, 1]")
        blocked_count = int(round(rate * len(known_ips)))
        blocked_ips = set(rng.sample(known_ips, blocked_count)) if blocked_count else set()
        model = EepsiteFetchModel(
            netdb, config=config, rng=random.Random(rng.randint(0, 2**31))
        )
        results = model.fetch_many(fetches_per_rate, blocked_ips)
        timeout_share = sum(1 for r in results if r.timed_out) / len(results)
        load_times = [r.seconds for r in results]
        timeout_series.add(rate * 100.0, timeout_share * 100.0)
        latency_series.add(rate * 100.0, float(np.mean(load_times)))
    figure.add_note(
        f"client netDb: {len(netdb)} RouterInfos, {len(known_ips)} blockable IPs; "
        f"{fetches_per_rate} fetches per blocking rate"
    )
    return figure
