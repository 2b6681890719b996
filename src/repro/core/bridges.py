"""Bridge strategies for censored users (Section 7.1).

The paper's discussion proposes helping censored users with I2P-style
"bridges": the peer IPs the censor has *not* yet blacklisted are
predominantly newly joined peers, and firewalled peers cannot be blocked by
address at all.  The analyses here quantify both observations on top of a
finished measurement campaign:

* what fraction of the peers that appeared on a given day escaped the
  censor's blacklist, split by peer age (newly joined vs long-lived);
* how long a newly joined peer remains unblocked ("bridge survival") as the
  censor keeps monitoring;
* how large the pool of firewalled peers (unblockable by address) is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..analysis.series import FigureData
from .blocking import censor_coverage
from .campaign import CampaignResult

__all__ = [
    "BridgePoolSummary",
    "bridge_pool_summary",
    "bridge_survival_curve",
]


@dataclass(frozen=True)
class BridgePoolSummary:
    """Composition of the candidate bridge pool on one evaluation day."""

    evaluation_day: int
    censor_routers: int
    blacklist_window_days: int
    total_online_known_ip: int
    unblocked_known_ip: int
    unblocked_newly_joined: int
    unblocked_long_lived: int
    firewalled_pool: int

    @property
    def unblocked_share(self) -> float:
        if self.total_online_known_ip == 0:
            return 0.0
        return self.unblocked_known_ip / self.total_online_known_ip

    @property
    def new_peer_share_of_unblocked(self) -> float:
        if self.unblocked_known_ip == 0:
            return 0.0
        return self.unblocked_newly_joined / self.unblocked_known_ip

    def as_dict(self) -> Dict[str, float]:
        return {
            "evaluation_day": self.evaluation_day,
            "censor_routers": self.censor_routers,
            "blacklist_window_days": self.blacklist_window_days,
            "total_online_known_ip": self.total_online_known_ip,
            "unblocked_known_ip": self.unblocked_known_ip,
            "unblocked_newly_joined": self.unblocked_newly_joined,
            "unblocked_long_lived": self.unblocked_long_lived,
            "firewalled_pool": self.firewalled_pool,
            "unblocked_share": self.unblocked_share,
            "new_peer_share_of_unblocked": self.new_peer_share_of_unblocked,
        }


def bridge_pool_summary(
    result: CampaignResult,
    censor_routers: int = 10,
    blacklist_window_days: int = 5,
    evaluation_day: Optional[int] = None,
    new_peer_age_days: int = 2,
) -> BridgePoolSummary:
    """Quantify the unblocked / firewalled bridge pool on one day.

    The candidate pool is assessed against the *union* of all monitoring
    observations for that day (the best available approximation of the
    daily online population), while the censor uses only its first
    ``censor_routers`` routers and its blacklist window.  A peer is
    blocked when any address it was ever observed with is blacklisted;
    the per-peer walk is a scatter over the observation log's address-key
    columns (:meth:`ObservationLog.known_ip_keys`), so no
    per-peer aggregates are materialised for columnar runs.
    """
    if evaluation_day is None:
        evaluation_day = len(result.log.daily) - 1
    first_days, owners, keys = result.log.known_ip_keys(evaluation_day)
    subject, inverse = np.unique(keys, return_inverse=True)
    listed = censor_coverage(
        result.monitors,
        censor_routers,
        evaluation_day,
        blacklist_window_days,
        subject,
    )
    firewalled_pool = result.log.daily[evaluation_day].firewalled_peers

    unblocked = ~_blocked_peers(first_days.size, owners, listed[inverse])
    new = evaluation_day - first_days <= new_peer_age_days
    return BridgePoolSummary(
        evaluation_day=evaluation_day,
        censor_routers=censor_routers,
        blacklist_window_days=blacklist_window_days,
        total_online_known_ip=int(first_days.size),
        unblocked_known_ip=int(np.count_nonzero(unblocked)),
        unblocked_newly_joined=int(np.count_nonzero(unblocked & new)),
        unblocked_long_lived=int(np.count_nonzero(unblocked & ~new)),
        firewalled_pool=firewalled_pool,
    )


def _blocked_peers(
    peers: int, owners: np.ndarray, key_listed: np.ndarray
) -> np.ndarray:
    """Per peer: whether any of its keys is listed (``key_listed`` is
    aligned with ``owners``)."""
    blocked = np.zeros(peers, dtype=bool)
    blocked[owners[key_listed]] = True
    return blocked


def bridge_survival_curve(
    result: CampaignResult,
    censor_routers: int = 10,
    blacklist_window_days: int = 30,
    cohort_day: Optional[int] = None,
    horizon_days: int = 10,
) -> FigureData:
    """How long newly joined peers stay unblocked as the censor keeps watching.

    The cohort is the set of peers first observed on ``cohort_day``; for
    each subsequent day the curve reports the fraction of the cohort whose
    addresses are still absent from the censor's blacklist.  Each day's
    blacklist coverage of the cohort's addresses is computed once and
    every survival day ORs the days of its window.
    """
    if cohort_day is None:
        cohort_day = max(0, len(result.log.daily) - horizon_days - 1)
    last_day = min(len(result.log.daily) - 1, cohort_day + horizon_days)

    first_days, owners, keys = result.log.known_ip_keys(cohort_day, first_seen=True)
    cohort = int(first_days.size)
    figure = FigureData(
        figure_id="ablation_bridges",
        title="Survival of newly joined peers as censorship bridges",
        x_label="days since first observation",
        y_label="fraction still unblocked (%)",
    )
    series = figure.new_series("new-peer bridges unblocked")
    if not cohort:
        figure.add_note("empty cohort: no newly joined peers on the cohort day")
        return figure

    subject, inverse = np.unique(keys, return_inverse=True)
    listed_on = {
        day: censor_coverage(result.monitors, censor_routers, day, 1, subject)
        for day in range(max(0, cohort_day - blacklist_window_days + 1), last_day + 1)
    }
    for day in range(cohort_day, last_day + 1):
        listed = np.zeros(subject.size, dtype=bool)
        for window_day in range(max(0, day - blacklist_window_days + 1), day + 1):
            listed |= listed_on[window_day]
        blocked = _blocked_peers(cohort, owners, listed[inverse])
        surviving = cohort - int(np.count_nonzero(blocked))
        series.add(day - cohort_day, surviving / cohort * 100.0)
    figure.add_note(
        f"cohort: {cohort} peers first observed on day {cohort_day + 1}; "
        f"censor: {censor_routers} routers, {blacklist_window_days}-day blacklist"
    )
    return figure
