"""Calibrated synthetic I2P population.

The population model is the ground truth the measurement pipeline observes.
It generates router identities with attributes calibrated against the
paper's findings (Section 5):

* a stable daily population (default ≈30.5K online peers per day);
* roughly half of the daily peers have unknown IPs, split into ~14K
  firewalled, ~4K hidden, with ~2.6K flapping between the two (Figure 6);
* capacity tiers dominated by L, then N (Figure 9), ~9 % floodfills of
  which ~30 % are manually enabled/unqualified (Table 1);
* geographic placement via :mod:`repro.sim.geo` (Figures 10–12) with
  hidden-mode enabled by default in poor-press-freedom countries;
* membership lengths and daily presence reproducing the longevity curves
  (Figure 7) and residential IP churn (Figure 8) via
  :mod:`repro.sim.churn` and :mod:`repro.sim.ip`.

The model exposes one simulated day at a time (:class:`DayView`), which the
monitoring, blocking, and usability analyses consume.  Days must be
consumed in order because IP rotation is stateful, mirroring real time.

Storage is columnar (:mod:`repro.sim.columns`): peer attributes live in
struct-of-arrays NumPy columns plus a peers × horizon presence bitmatrix,
built once at population bootstrap and appended to as arrivals join.  A
:class:`DayView` is therefore a cheap bundle of per-day array slices;
row-oriented :class:`~repro.sim.peer.PeerDaySnapshot` objects are only
materialised *lazily* — on first access to ``DayView.snapshots`` — so the
vectorised observation pipeline never pays for them while legacy callers
(usability sampling, CLI inspection, tests) keep working unchanged.

RNG scheme: *bootstrap* draws whole attribute columns at a time from the
dedicated NumPy ``"bootstrap"`` substream (a documented draw-order break
from the historical per-peer sampling — see
:meth:`I2PPopulation._bootstrap_initial_population`; the marginal
distributions are unchanged and locked in by
``tests/sim/test_bootstrap_distribution.py``).  The per-day evolution draw
order (arrival Poisson, IP rotation, flapping splits) is unchanged, and
fixed seeds reproduce identical campaigns run-to-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..netdb.identity import RouterIdentity
from .bandwidth import BandwidthModel, TierAssignment
from .churn import ChurnModel, PresenceSchedule
from .columns import (
    TIER_ORDER,
    VIS_CODE,
    VIS_FIREWALLED,
    VIS_FLAPPING,
    VIS_HIDDEN,
    VIS_PUBLIC,
    DayColumns,
    PeerColumns,
)
from .geo import GeoRegistry, default_registry
from .ip import IpAssignmentManager
from .peer import PeerDaySnapshot, PeerRecord, VisibilityClass
from .rng import SeededStreams
from ..netdb.identity import IDENTITY_KEY_LENGTH
from ..transport.ports import random_i2p_port, random_i2p_ports_batch

#: Reverse of :data:`repro.sim.columns.VIS_CODE`.
_VIS_CLASS_BY_CODE = {code: cls for cls, code in VIS_CODE.items()}

__all__ = [
    "PopulationConfig",
    "DayView",
    "I2PPopulation",
    "snapshot_allocations",
    "reset_snapshot_allocations",
]


#: Running count of PeerDaySnapshot objects materialised from columnar day
#: views — the perf-budget benchmark uses it to prove the hot path stays
#: allocation-free.
_SNAPSHOT_ALLOCATIONS = 0


def snapshot_allocations() -> int:
    """Total snapshots lazily materialised since the last reset."""
    return _SNAPSHOT_ALLOCATIONS


def reset_snapshot_allocations() -> None:
    global _SNAPSHOT_ALLOCATIONS
    _SNAPSHOT_ALLOCATIONS = 0


@dataclass(frozen=True)
class PopulationConfig:
    """Configuration of the synthetic population.

    ``target_daily_population`` scales the whole network; the paper's
    full-scale value is 30,500 daily peers, benchmarks typically use a
    scaled-down value for speed (results are reported as shares).
    """

    target_daily_population: int = 30_500
    horizon_days: int = 90
    seed: int = 2018

    #: Visibility-class fractions (Section 5.1 / Figure 6 calibration).
    public_fraction: float = 0.495
    firewalled_fraction: float = 0.374
    hidden_fraction: float = 0.046
    flapping_fraction: float = 0.085

    #: Extra probability mass moved to hidden mode for peers in countries
    #: with poor press-freedom scores (hidden-by-default behaviour).
    poor_press_freedom_hidden_boost: float = 0.25

    def __post_init__(self) -> None:
        if self.target_daily_population <= 0:
            raise ValueError("target_daily_population must be positive")
        if self.horizon_days <= 0:
            raise ValueError("horizon_days must be positive")
        fractions = (
            self.public_fraction
            + self.firewalled_fraction
            + self.hidden_fraction
            + self.flapping_fraction
        )
        if not math.isclose(fractions, 1.0, rel_tol=1e-6):
            raise ValueError("visibility-class fractions must sum to 1")


class DayView:
    """Everything observable about the network on one simulation day.

    Columnar views (the ones the population produces) carry a
    :class:`~repro.sim.columns.DayColumns` bundle and materialise their
    ``snapshots`` list lazily on first access; views built directly from a
    snapshot list (legacy/tests) work the same as before.  The count
    properties are cached — from the arrays when columnar, from one
    snapshot pass otherwise.
    """

    def __init__(
        self,
        day: int,
        snapshots: Optional[List[PeerDaySnapshot]] = None,
        new_arrivals: int = 0,
        departures: int = 0,
        columns: Optional[DayColumns] = None,
    ) -> None:
        if snapshots is None and columns is None:
            raise ValueError("a DayView needs snapshots or columns")
        self.day = day
        self.new_arrivals = new_arrivals
        self.departures = departures
        self.columns = columns
        self._snapshots: Optional[List[PeerDaySnapshot]] = (
            list(snapshots) if snapshots is not None else None
        )
        self._counts: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Row-oriented compatibility layer
    # ------------------------------------------------------------------ #
    @property
    def snapshots(self) -> List[PeerDaySnapshot]:
        """Per-peer snapshots, materialised lazily for columnar views."""
        if self._snapshots is None:
            self._snapshots = self._materialise_snapshots()
        return self._snapshots

    def _materialise_snapshots(self) -> List[PeerDaySnapshot]:
        global _SNAPSHOT_ALLOCATIONS
        cols = self.columns
        assert cols is not None
        records = cols.columns.records
        day = self.day
        snapshots: List[PeerDaySnapshot] = []
        append = snapshots.append
        for row in range(cols.count):
            record = records[int(cols.indices[row])]
            append(
                PeerDaySnapshot(
                    peer_id=record.peer_id,
                    index=record.index,
                    day=day,
                    ip=cols.ip[row],
                    ipv6=cols.ipv6[row],
                    asn=int(cols.asn[row]) if cols.asn[row] >= 0 else None,
                    country_code=cols.country[row],
                    port=int(cols.port[row]),
                    bandwidth_tier=TIER_ORDER[cols.tier_code[row]],
                    advertised_tiers=record.tier.advertised_tiers,
                    floodfill=bool(cols.floodfill[row]),
                    reachable=bool(cols.reachable[row]),
                    firewalled=bool(cols.firewalled[row]),
                    hidden=bool(cols.hidden[row]),
                    is_new_today=bool(cols.new_today[row]),
                    base_visibility=float(cols.base_visibility[row]),
                    activity=float(cols.activity[row]),
                )
            )
        _SNAPSHOT_ALLOCATIONS += len(snapshots)
        return snapshots

    # ------------------------------------------------------------------ #
    # Cached counts (derived from the columnar view when available)
    # ------------------------------------------------------------------ #
    def _count(self, name: str) -> int:
        cached = self._counts.get(name)
        if cached is None:
            if self.columns is not None:
                array = {
                    "known_ip": self.columns.valid_ip,
                    "firewalled": self.columns.firewalled,
                    "hidden": self.columns.hidden,
                    "floodfill": self.columns.floodfill,
                }[name]
                cached = int(np.count_nonzero(array))
            else:
                predicate = {
                    "known_ip": lambda s: s.has_valid_ip,
                    "firewalled": lambda s: s.firewalled,
                    "hidden": lambda s: s.hidden,
                    "floodfill": lambda s: s.floodfill,
                }[name]
                cached = sum(1 for s in self.snapshots if predicate(s))
            self._counts[name] = cached
        return cached

    @property
    def online_count(self) -> int:
        if self.columns is not None:
            return self.columns.count
        return len(self.snapshots)

    @property
    def known_ip_count(self) -> int:
        return self._count("known_ip")

    @property
    def firewalled_count(self) -> int:
        return self._count("firewalled")

    @property
    def hidden_count(self) -> int:
        return self._count("hidden")

    @property
    def floodfill_count(self) -> int:
        return self._count("floodfill")

    def by_peer_id(self) -> Dict[bytes, PeerDaySnapshot]:
        return {s.peer_id: s for s in self.snapshots}

    def ip_addresses(self) -> List[str]:
        """All publicly visible IPv4 addresses on this day."""
        if self.columns is not None:
            return list(self.columns.ip[self.columns.valid_ip])
        return [s.ip for s in self.snapshots if s.has_valid_ip and s.ip is not None]


class I2PPopulation:
    """Generates and evolves the synthetic peer population day by day."""

    #: Base-visibility mixture (multiplier applied to monitor reach), chosen
    #: so coverage saturates the way Figures 3, 4, and 13 report.
    _VISIBILITY_MIXTURE: Tuple[Tuple[float, Tuple[float, float]], ...] = (
        (0.55, (1.10, 1.45)),  # well-integrated peers
        (0.30, (0.70, 1.10)),  # moderately integrated
        (0.10, (0.25, 0.70)),  # peripheral
        (0.05, (0.02, 0.18)),  # nearly invisible (short uptimes, new peers)
    )

    def __init__(
        self,
        config: Optional[PopulationConfig] = None,
        registry: Optional[GeoRegistry] = None,
        churn_model: Optional[ChurnModel] = None,
        bandwidth_model: Optional[BandwidthModel] = None,
        retain_records: bool = True,
    ) -> None:
        self.config = config or PopulationConfig()
        #: Lean mode for the out-of-core exposure build: per-peer
        #: ``PeerRecord`` objects (and the id → record map) are dropped as
        #: soon as their columns are extracted.  Every RNG draw is
        #: unchanged, so lean and full populations are byte-identical
        #: column for column; only row-oriented access (``peers``,
        #: ``peer()``, snapshot materialisation) is unavailable.
        self.retain_records = retain_records
        self.registry = registry or default_registry()
        self.streams = SeededStreams(self.config.seed)
        self._churn_rng = self.streams.python("churn")
        self._attr_rng = self.streams.python("attributes")
        self._ip_rng = self.streams.python("ip")
        self._day_rng = self.streams.python("daily")
        self.churn_model = churn_model or ChurnModel(rng=self._churn_rng)
        self.bandwidth_model = bandwidth_model or BandwidthModel()
        self.ip_manager = IpAssignmentManager(
            self.registry, self._ip_rng, retain_history=retain_records
        )

        self._columns = PeerColumns(
            horizon_days=self.config.horizon_days,
            initial_capacity=max(
                1024, int(self.config.target_daily_population * 1.6)
            ),
            retain_records=retain_records,
        )
        #: Row-oriented records, index-aligned with the columns (the list is
        #: shared with :attr:`PeerColumns.records`).
        self.peers: List[PeerRecord] = self._columns.records
        self._peers_by_id: Dict[bytes, PeerRecord] = {}
        self._next_index = 0
        self._current_day = -1
        self._expected_online_probability = 0.85

        self._bootstrap_initial_population()
        #: Poisson arrival rate that keeps the daily population stable.
        #: (``columns.size`` == the identity count whether or not records
        #: are retained, so lean populations draw identically.)
        self._arrival_rate = max(
            1.0,
            self._columns.size
            / max(1.0, self.churn_model.expected_lifetime_days()),
        )

    @property
    def columns(self) -> PeerColumns:
        """The population's struct-of-arrays backing store."""
        return self._columns

    # ------------------------------------------------------------------ #
    # Peer creation
    # ------------------------------------------------------------------ #
    def _sample_visibility_class(self, country_code: str) -> VisibilityClass:
        cfg = self.config
        roll = self._attr_rng.random()
        country = self.registry.country(country_code)
        if country.poor_press_freedom:
            # Hidden-by-default: move part of the public mass to hidden.
            boost = cfg.poor_press_freedom_hidden_boost
            hidden_cut = cfg.hidden_fraction + cfg.public_fraction * boost
            public_cut = hidden_cut + cfg.public_fraction * (1.0 - boost)
            firewalled_cut = public_cut + cfg.firewalled_fraction
            if roll < hidden_cut:
                return VisibilityClass.HIDDEN
            if roll < public_cut:
                return VisibilityClass.PUBLIC
            if roll < firewalled_cut:
                return VisibilityClass.FIREWALLED
            return VisibilityClass.FLAPPING
        public_cut = cfg.public_fraction
        firewalled_cut = public_cut + cfg.firewalled_fraction
        hidden_cut = firewalled_cut + cfg.hidden_fraction
        if roll < public_cut:
            return VisibilityClass.PUBLIC
        if roll < firewalled_cut:
            return VisibilityClass.FIREWALLED
        if roll < hidden_cut:
            return VisibilityClass.HIDDEN
        return VisibilityClass.FLAPPING

    def _sample_base_visibility(
        self, visibility_class: VisibilityClass, tier: TierAssignment
    ) -> float:
        roll = self._attr_rng.random()
        acc = 0.0
        chosen = self._VISIBILITY_MIXTURE[-1][1]
        for weight, bounds in self._VISIBILITY_MIXTURE:
            acc += weight
            if roll <= acc:
                chosen = bounds
                break
        value = self._attr_rng.uniform(*chosen)
        if visibility_class is VisibilityClass.HIDDEN:
            value *= 0.55
        elif visibility_class is VisibilityClass.FIREWALLED:
            value *= 0.85
        elif visibility_class is VisibilityClass.FLAPPING:
            value *= 0.75
        if tier.primary_tier.value in ("O", "P", "X"):
            value *= 1.10
        return min(value, 1.6)

    def _create_peer(self, schedule: PresenceSchedule) -> PeerRecord:
        index = self._next_index
        self._next_index += 1
        identity = RouterIdentity.generate(self._attr_rng)
        country = self.registry.sample_country(self._attr_rng)
        assignment = self.ip_manager.register_peer(identity.hash, country.code)
        tier = self.bandwidth_model.sample(self._attr_rng)
        visibility_class = self._sample_visibility_class(country.code)
        base_visibility = self._sample_base_visibility(visibility_class, tier)
        activity = min(1.0, 0.25 + 0.75 * self._attr_rng.random() + 0.05 * (
            tier.primary_tier.value in ("N", "O", "P", "X")
        ))
        port = random_i2p_port(self._attr_rng)
        asys = self.registry.autonomous_system(assignment.asn)

        horizon = self.config.horizon_days
        presence = np.zeros(horizon, dtype=bool)
        rnd = self._attr_rng.random
        for day in range(max(0, schedule.join_day), min(horizon, schedule.leave_day)):
            if day == schedule.join_day or day == schedule.leave_day - 1:
                presence[day] = True
            else:
                presence[day] = rnd() < schedule.online_probability

        record = PeerRecord(
            index=index,
            identity=identity,
            tier=tier,
            visibility_class=visibility_class,
            schedule=schedule,
            country_code=assignment.country_code,
            home_asn=assignment.asn,
            port=port,
            base_visibility=base_visibility,
            activity=activity,
            supports_ipv6=asys.supports_ipv6,
            presence=presence,
        )
        profile = self.ip_manager.profile(record.peer_id)
        self._columns.append(
            record,
            static_ip=profile.change_interval_days == float("inf"),
            assignment=assignment,
        )
        if self.retain_records:
            self._peers_by_id[record.peer_id] = record
        return record

    def _bootstrap_initial_population(self) -> None:
        """Create the steady-state population present on day 0, batched.

        Initial members are sampled with *length-biased* lifetimes (a
        stationary population over-represents long-lived peers relative to
        the arrival distribution), then back-dated uniformly within their
        lifetime so day 0 is statistically indistinguishable from any later
        day.

        **Batched RNG scheme (documented draw-order break).**  Historically
        every bootstrap attribute was drawn per peer from the ``churn`` /
        ``attributes`` / ``ip`` Python streams, which cost ~2.3s of a
        paper-scale campaign (≈2.3M scalar draws for the presence vectors
        alone).  Bootstrap now draws whole columns at a time from the
        dedicated NumPy ``"bootstrap"`` substream: schedules, the presence
        bitmatrix, identity key material, countries, IP profiles, tiers,
        visibility, activity, and ports, in that fixed order.  Populations
        generated at a fixed seed therefore differ peer-by-peer from
        pre-batch versions, but every marginal distribution (lifetime
        classes, country weights, tier weights, visibility fractions,
        presence statistics) is unchanged —
        ``tests/sim/test_bootstrap_distribution.py`` locks that in against
        the per-peer reference sampler, which arrivals still use.
        """
        target_members = int(
            round(
                self.config.target_daily_population
                / self._expected_online_probability
            )
        )
        boot = self.streams.numpy("bootstrap")
        horizon = self.config.horizon_days
        n = target_members

        # 1. Length-biased schedules.
        classes = self.churn_model._classes  # calibrated mixture
        length_biased = np.asarray(
            [cls.weight * (cls.min_days + cls.max_days) / 2.0 for cls in classes]
        )
        class_cum = np.cumsum(length_biased / length_biased.sum())
        cls_idx = np.minimum(
            np.searchsorted(class_cum, boot.random(n), side="left"), len(classes) - 1
        )
        min_days = np.asarray([c.min_days for c in classes])[cls_idx]
        max_days = np.asarray([c.max_days for c in classes])[cls_idx]
        lifetimes = np.maximum(
            1, np.round(min_days + boot.random(n) * (max_days - min_days)).astype(np.int64)
        )
        elapsed = np.minimum(
            (boot.random(n) * lifetimes).astype(np.int64), lifetimes - 1
        )
        p_lo = np.asarray([c.online_probability_range[0] for c in classes])[cls_idx]
        p_hi = np.asarray([c.online_probability_range[1] for c in classes])[cls_idx]
        online_p = p_lo + boot.random(n) * (p_hi - p_lo)
        join_days = -elapsed
        leave_days = join_days + lifetimes

        # 2. Presence bitmatrix: one uniform matrix instead of ~n × horizon
        # scalar draws; membership boundary days are forced online.
        day_index = np.arange(horizon)
        member = (day_index >= join_days[:, None]) & (day_index < leave_days[:, None])
        presence = member & (boot.random((n, horizon)) < online_p[:, None])
        rows = np.arange(n)
        join_in = (join_days >= 0) & (join_days < horizon)
        presence[rows[join_in], join_days[join_in]] = True
        last_days = leave_days - 1
        last_in = (last_days >= 0) & (last_days < horizon)
        presence[rows[last_in], last_days[last_in]] = True

        # 3. Identities, countries, IP profiles.
        material = boot.bytes(n * IDENTITY_KEY_LENGTH)
        identities = [
            RouterIdentity(material[i * IDENTITY_KEY_LENGTH : (i + 1) * IDENTITY_KEY_LENGTH])
            for i in range(n)
        ]
        peer_ids = [identity.hash for identity in identities]
        countries = self.registry.sample_country_codes_batch(n, boot).tolist()
        assignments = self.ip_manager.register_peers_batch(peer_ids, countries, boot)

        # 4. Tiers, visibility, activity, ports.
        tiers = self.bandwidth_model.sample_batch(n, boot)
        poor = np.asarray(
            [self.registry.country(code).poor_press_freedom for code in countries],
            dtype=bool,
        )
        vis_codes = self._sample_visibility_classes_batch(poor, boot.random(n))
        base_visibility = self._sample_base_visibility_batch(
            vis_codes, tiers, boot.random(n), boot.random(n)
        )
        fast_tier = np.asarray(
            [t.primary_tier.value in ("N", "O", "P", "X") for t in tiers], dtype=float
        )
        activity = np.minimum(1.0, 0.25 + 0.75 * boot.random(n) + 0.05 * fast_tier)
        ports = random_i2p_ports_batch(n, boot)

        # 5. Install the records (per-peer object assembly, no draws).
        class_names = [c.name for c in classes]
        for i in range(n):
            schedule = PresenceSchedule(
                join_day=int(join_days[i]),
                leave_day=int(leave_days[i]),
                online_probability=float(online_p[i]),
                lifetime_class=class_names[int(cls_idx[i])],
            )
            assignment = assignments[i]
            asys = self.registry.autonomous_system(assignment.asn)
            record = PeerRecord(
                index=self._next_index,
                identity=identities[i],
                tier=tiers[i],
                visibility_class=_VIS_CLASS_BY_CODE[int(vis_codes[i])],
                schedule=schedule,
                country_code=assignment.country_code,
                home_asn=assignment.asn,
                port=int(ports[i]),
                base_visibility=float(base_visibility[i]),
                activity=float(activity[i]),
                supports_ipv6=asys.supports_ipv6,
                presence=presence[i],
            )
            self._next_index += 1
            profile = self.ip_manager.profile(record.peer_id)
            self._columns.append(
                record,
                static_ip=profile.change_interval_days == float("inf"),
                assignment=assignment,
            )
            if self.retain_records:
                self._peers_by_id[record.peer_id] = record

    def _sample_visibility_classes_batch(
        self, poor: np.ndarray, rolls: np.ndarray
    ) -> np.ndarray:
        """Visibility-class codes for a batch, split by press-freedom branch.

        Mirrors :meth:`_sample_visibility_class` exactly, including the
        hidden-by-default boost for poor-press-freedom countries.
        """
        cfg = self.config
        boost = cfg.poor_press_freedom_hidden_boost
        poor_cuts = np.cumsum(
            [
                cfg.hidden_fraction + cfg.public_fraction * boost,
                cfg.public_fraction * (1.0 - boost),
                cfg.firewalled_fraction,
            ]
        )
        poor_classes = np.asarray(
            [VIS_HIDDEN, VIS_PUBLIC, VIS_FIREWALLED, VIS_FLAPPING], dtype=np.uint8
        )
        normal_cuts = np.cumsum(
            [cfg.public_fraction, cfg.firewalled_fraction, cfg.hidden_fraction]
        )
        normal_classes = np.asarray(
            [VIS_PUBLIC, VIS_FIREWALLED, VIS_HIDDEN, VIS_FLAPPING], dtype=np.uint8
        )
        codes = np.empty(rolls.size, dtype=np.uint8)
        codes[poor] = poor_classes[
            np.searchsorted(poor_cuts, rolls[poor], side="right")
        ]
        codes[~poor] = normal_classes[
            np.searchsorted(normal_cuts, rolls[~poor], side="right")
        ]
        return codes

    def _sample_base_visibility_batch(
        self,
        vis_codes: np.ndarray,
        tiers: List[TierAssignment],
        mixture_rolls: np.ndarray,
        value_rolls: np.ndarray,
    ) -> np.ndarray:
        """Batch counterpart of :meth:`_sample_base_visibility`."""
        weights = np.asarray([w for w, _ in self._VISIBILITY_MIXTURE])
        bounds = np.asarray([b for _, b in self._VISIBILITY_MIXTURE])
        component = np.minimum(
            np.searchsorted(np.cumsum(weights), mixture_rolls, side="left"),
            len(self._VISIBILITY_MIXTURE) - 1,
        )
        low = bounds[component, 0]
        high = bounds[component, 1]
        value = low + value_rolls * (high - low)
        value = np.where(vis_codes == VIS_HIDDEN, value * 0.55, value)
        value = np.where(vis_codes == VIS_FIREWALLED, value * 0.85, value)
        value = np.where(vis_codes == VIS_FLAPPING, value * 0.75, value)
        high_end = np.asarray(
            [t.primary_tier.value in ("O", "P", "X") for t in tiers], dtype=bool
        )
        value = np.where(high_end, value * 1.10, value)
        return np.minimum(value, 1.6)

    # ------------------------------------------------------------------ #
    # Day-by-day evolution
    # ------------------------------------------------------------------ #
    def _spawn_arrivals(self, day: int) -> int:
        """Create the new identities joining the network on ``day``."""
        expected = self._arrival_rate
        # Poisson draw via inversion; rates here are small enough (<10^4).
        arrivals = 0
        threshold = math.exp(-expected)
        product = self._day_rng.random()
        while product > threshold:
            arrivals += 1
            product *= self._day_rng.random()
        for _ in range(arrivals):
            schedule = self.churn_model.sample_schedule(day, self._churn_rng)
            self._create_peer(schedule)
        return arrivals

    def day_view(self, day: int) -> DayView:
        """Materialise the network state for ``day``.

        Days must be requested in non-decreasing order (IP churn is
        stateful).  Requesting the same day twice is not supported; callers
        that need the data again should keep the returned view.
        """
        if day < 0 or day >= self.config.horizon_days:
            raise ValueError(
                f"day {day} outside the campaign horizon [0, {self.config.horizon_days})"
            )
        if day <= self._current_day:
            raise ValueError("days must be consumed strictly in order")
        # Advance through skipped days so arrivals/IP churn stay consistent.
        view: Optional[DayView] = None
        for current in range(self._current_day + 1, day + 1):
            view = self._materialise_day(current)
        self._current_day = day
        assert view is not None
        return view

    def iter_days(self, start: int = 0, end: Optional[int] = None) -> Iterator[DayView]:
        """Iterate day views from ``start`` to ``end`` (exclusive)."""
        end = self.config.horizon_days if end is None else end
        for day in range(start, end):
            yield self.day_view(day)

    def _materialise_day(self, day: int) -> DayView:
        """Build the columnar view for one day.

        The RNG draw order matches the historical row-oriented engine: the
        arrival Poisson draw first, then one ``_ip_rng`` draw per online
        peer with a non-static address profile (in global index order),
        then one ``_day_rng`` draw per online flapping peer (same order) —
        so fixed seeds produce byte-identical campaigns.
        """
        arrivals = self._spawn_arrivals(day)
        cols = self._columns
        online_idx = cols.online_indices(day)
        departures = cols.departures_on(day)

        # Daily IP churn for online peers (stateful, order-preserving).
        rotate_idx = online_idx[~cols.static_ip[online_idx]]
        if rotate_idx.size:
            rotated = self.ip_manager.maybe_rotate_many(
                cols.peer_ids[rotate_idx].tolist()
            )
            for position, assignment in rotated:
                cols.set_assignment(int(rotate_idx[position]), assignment)

        # Visibility split, including the daily flapping coin flips.
        vis = cols.vis_class[online_idx]
        firewalled = vis == VIS_FIREWALLED
        hidden = vis == VIS_HIDDEN
        flapping_rows = np.nonzero(vis == VIS_FLAPPING)[0]
        if flapping_rows.size:
            rnd = self._day_rng.random
            draws = np.fromiter(
                (rnd() for _ in range(flapping_rows.size)),
                dtype=np.float64,
                count=flapping_rows.size,
            )
            flap_firewalled = draws < 0.5
            firewalled[flapping_rows[flap_firewalled]] = True
            hidden[flapping_rows[~flap_firewalled]] = True
        reachable = vis == VIS_PUBLIC

        addr4 = cols.cur_addr4[online_idx]
        valid_ip = (addr4 >= 0) & ~firewalled & ~hidden
        day_columns = DayColumns(
            day=day,
            columns=cols,
            indices=online_idx,
            peer_ids=cols.peer_ids[online_idx],
            activity=cols.activity[online_idx],
            base_visibility=cols.base_visibility[online_idx],
            tier_code=cols.tier_code[online_idx],
            floodfill=cols.floodfill[online_idx],
            reachable=reachable,
            firewalled=firewalled,
            hidden=hidden,
            valid_ip=valid_ip,
            new_today=cols.join_day[online_idx] == day,
            port=cols.port[online_idx],
            addr4=addr4,
            addr6=cols.cur_addr6[online_idx],
            country=cols.cur_country[online_idx],
            asn=cols.cur_asn[online_idx],
            version=cols.cur_version[online_idx],
        )
        return DayView(
            day=day,
            new_arrivals=arrivals,
            departures=departures,
            columns=day_columns,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def peer(self, peer_id: bytes) -> PeerRecord:
        if not self.retain_records:
            raise RuntimeError(
                "row-oriented peer access is unavailable on a lean "
                "(retain_records=False) population"
            )
        return self._peers_by_id[peer_id]

    def total_identities(self) -> int:
        """All identities created so far (members past and present)."""
        return self._columns.size

    def estimated_network_size(self) -> int:
        """The model's own notion of the daily active population."""
        return self.config.target_daily_population
