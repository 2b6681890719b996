"""Monitoring routers and observation aggregation.

The paper's measurement pipeline (Section 4.3) snapshots each monitoring
router's netDb directory hourly and wipes it daily, so the unit of analysis
is *"peer X was observed on day D with RouterInfo contents Y"*.  This
module provides:

* :class:`MonitoringRouter` — one observing router (its configuration plus
  what it has seen so far, both cumulatively and per day);
* :class:`PeerObservationAggregate` — everything the pipeline retains about
  one peer across the campaign (days seen, addresses, capacity flags,
  geographic placement), mirroring the minimal data collection described in
  the ethics section (hash, addresses, capacity);
* :class:`DailyStats` and :class:`ObservationLog` — the campaign-wide
  aggregation that the per-figure analyses consume.

Recording has two paths.  Columnar day views (the kind
:class:`~repro.sim.population.I2PPopulation` produces) are recorded with
NumPy mask arithmetic: cumulative coverage is a boolean vector over the
global peer index, daily statistics are ``count_nonzero`` over the day's
masks, and per-peer address history is appended to a columnar *event log*
(one row per IP-assignment capture: integer address keys, countries
interned to integer codes) only when a peer's assignment *version*
actually advanced.  Every figure analysis — longevity, churn, capacity,
geography, population split, bridges, blocking — consumes the
accumulator arrays directly through the ``ObservationLog`` accessors; the
per-peer :class:`PeerObservationAggregate` objects remain available as a
lazily materialised compatibility view (:attr:`ObservationLog.peers`) for
tests and external callers.  Snapshot-backed views fall back to the
original row-oriented loop, which the equivalence tests use as the
reference.

Addresses are integer keys (:mod:`repro.sim.addresses`) on every path:
the monitors' daily address sets hold keys, and address strings are
formatted only for output (:meth:`MonitoringRouter.ips_in_window`,
``DailyIpSets[day]``, :attr:`ObservationLog.peers`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..sim.addresses import address_key, format_address, format_addresses, key_positions
from ..sim.columns import TIER_ORDER, PeerColumns
from ..sim.observation import MonitorMode, MonitorSpec
from ..sim.peer import PeerDaySnapshot
from ..sim.population import DayView

#: A day's address-key columns ``(addr4, addr6)``, or a loader of them.
KeySource = Union[
    Tuple[np.ndarray, np.ndarray], Callable[[], Tuple[np.ndarray, np.ndarray]]
]

__all__ = [
    "MonitoringRouter",
    "PeerObservationAggregate",
    "DailyStats",
    "ObservationLog",
]


class DailyIpSets(Sequence):
    """List-like container of one monitor's per-day observed address keys.

    The columnar recording path appends a *deferred* entry per day — the
    day's shared ``addr4`` / ``addr6`` key columns plus a bit-packed mask
    of the rows observed with a usable address — so recording copies no
    addresses.  The row-oriented path appends the day's sorted unique keys
    directly.  :meth:`keys` resolves one day to sorted unique keys, and
    :func:`day_coverage` matches many monitors' days against a sorted key
    array without building per-day key sets at all.  Indexing returns the
    day's addresses as a ``Set[str]``, formatted for output only.
    """

    def __init__(self) -> None:
        self._items: List[object] = []

    def append(self, keys: np.ndarray) -> None:
        """A day's observed keys, sorted and unique (row-oriented path)."""
        self._items.append(np.asarray(keys, dtype=np.int64))

    def append_deferred(
        self, source: KeySource, packed_mask: np.ndarray, count: int
    ) -> None:
        """A day's deferred entry (columnar path).

        ``source`` is the day's ``(addr4, addr6)`` key columns or, for a
        streamed (disk-backed) view, a loader that reads them from the
        exposure bundle when an analysis asks, so recording a day pins
        only the bit-packed mask, not the day's columns.
        """
        self._items.append((source, packed_mask, count))

    def keys(self, index: int) -> np.ndarray:
        """Sorted unique address keys observed on day ``index``."""
        item = self._items[index]
        if isinstance(item, np.ndarray):
            return item
        source, packed_mask, count = item  # type: ignore[misc]
        addr4, addr6 = _key_columns(source)
        mask = np.unpackbits(packed_mask, count=count).view(bool)
        keys = np.unique(np.concatenate((addr4[mask], addr6[mask])))
        return keys[np.searchsorted(keys, 0) :]

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self._items)
        if not 0 <= index < len(self._items):
            raise IndexError("day index out of range")
        return set(format_addresses(self.keys(index)).tolist())

    def __repr__(self) -> str:
        return f"DailyIpSets(days={len(self._items)})"


def _key_columns(source: KeySource) -> Tuple[np.ndarray, np.ndarray]:
    return source() if callable(source) else source


def day_coverage(
    sets: Sequence[DailyIpSets], day: int, subject: np.ndarray
) -> np.ndarray:
    """Which of the sorted unique ``subject`` keys each set observed on ``day``.

    Returns a ``(len(sets), subject.size)`` boolean matrix (an all-false
    row for a set that recorded no such day).  Deferred entries that share
    the day's key columns — every monitor of one campaign does — locate
    those columns in ``subject`` once; each set then only scatters its own
    observed rows.
    """
    covered = np.zeros((len(sets), subject.size), dtype=bool)
    #: id(addr4) → (addr4, its positions, addr6's positions); holding addr4
    #: keeps its id from being reused while this call runs.
    located: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for row, daily in enumerate(sets):
        if day >= len(daily):
            continue
        item = daily._items[day]
        if isinstance(item, np.ndarray):
            positions = key_positions(subject, item)
            covered[row, positions[positions >= 0]] = True
            continue
        source, packed_mask, count = item  # type: ignore[misc]
        addr4, addr6 = _key_columns(source)
        columns = located.get(id(addr4))
        if columns is None:
            columns = located[id(addr4)] = (
                addr4,
                key_positions(subject, addr4),
                key_positions(subject, addr6),
            )
        mask = np.unpackbits(packed_mask, count=count).view(bool)
        for positions in columns[1:]:
            hits = positions[mask]
            covered[row, hits[hits >= 0]] = True
    return covered


def _observed_mask(view: DayView, observed: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
    """Normalise an observation (mask, index array, or index iterable) to a
    boolean mask over the day's online peers."""
    count = view.online_count
    if isinstance(observed, np.ndarray):
        if observed.dtype == np.bool_:
            if observed.size != count:
                raise ValueError("observation mask length does not match the day")
            return observed
        indices = observed.astype(np.int64, copy=False)
    else:
        indices = np.fromiter((int(i) for i in observed), dtype=np.int64)
    mask = np.zeros(count, dtype=bool)
    if indices.size:
        mask[indices] = True
    return mask


def _observed_indices(
    observed: Union[np.ndarray, Iterable[int]]
) -> Union[np.ndarray, Iterable[int]]:
    """Normalise a boolean mask to indices for the row-oriented path."""
    if isinstance(observed, np.ndarray) and observed.dtype == np.bool_:
        return np.nonzero(observed)[0]
    return observed


class MonitoringRouter:
    """One monitoring router plus its collected observations."""

    def __init__(
        self,
        spec: MonitorSpec,
        collect_daily_ips: bool = False,
        collect_daily_peers: bool = False,
    ) -> None:
        self.spec = spec
        self.collect_daily_ips = collect_daily_ips
        self.collect_daily_peers = collect_daily_peers
        self.daily_observed_counts: List[int] = []
        self.daily_ip_sets: DailyIpSets = DailyIpSets()
        self.daily_peer_sets: List[Set[bytes]] = []
        #: Row-path cumulative ids (columnar recording uses a mask instead).
        self._cumulative_ids: Set[bytes] = set()
        self._cumulative_mask: Optional[np.ndarray] = None
        self._store: Optional[PeerColumns] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def mode(self) -> MonitorMode:
        return self.spec.mode

    @property
    def cumulative_peer_ids(self) -> Set[bytes]:
        """All peer ids this router has ever observed."""
        ids = set(self._cumulative_ids)
        if self._cumulative_mask is not None and self._store is not None:
            size = min(self._cumulative_mask.size, self._store.size)
            mask = self._cumulative_mask[:size]
            ids.update(self._store.peer_ids[:size][mask].tolist())
        return ids

    def record_day(
        self, view: DayView, observed: Union[np.ndarray, Iterable[int]]
    ) -> None:
        """Record one day of observations.

        ``observed`` may be a boolean mask over the day's online peers or
        an array/iterable of positional indices into ``view.snapshots``.
        """
        if view.columns is not None:
            self._record_day_columnar(view, _observed_mask(view, observed))
        else:
            self._record_day_rows(view, _observed_indices(observed))

    def _record_day_columnar(self, view: DayView, mask: np.ndarray) -> None:
        cols = view.columns
        assert cols is not None
        store = cols.columns
        if self._store is not None and self._store is not store:
            raise ValueError(
                "monitor already recorded views from a different population"
            )
        self._store = store
        observed_global = cols.indices[mask]
        if self._cumulative_mask is None or self._cumulative_mask.size < store.size:
            previous = 0 if self._cumulative_mask is None else self._cumulative_mask.size
            grown = np.zeros(max(store.size, previous * 2, 1024), dtype=bool)
            if self._cumulative_mask is not None:
                grown[: self._cumulative_mask.size] = self._cumulative_mask
            self._cumulative_mask = grown
        self._cumulative_mask[observed_global] = True
        self.daily_observed_counts.append(int(observed_global.size))
        if self.collect_daily_ips:
            source = getattr(view, "address_loader", None) or (cols.addr4, cols.addr6)
            self.daily_ip_sets.append_deferred(
                source, np.packbits(mask & cols.valid_ip), cols.count
            )
        if self.collect_daily_peers:
            self.daily_peer_sets.append(set(cols.peer_ids[mask].tolist()))

    def _record_day_rows(
        self, view: DayView, observed_indices: Union[np.ndarray, Iterable[int]]
    ) -> None:
        """Reference row-oriented recording (snapshot-backed views)."""
        peer_ids: Set[bytes] = set()
        ips: Set[str] = set()
        for index in observed_indices:
            snapshot = view.snapshots[int(index)]
            peer_ids.add(snapshot.peer_id)
            for ip in snapshot.ip_addresses:
                ips.add(ip)
        self._cumulative_ids.update(peer_ids)
        self.daily_observed_counts.append(len(peer_ids))
        if self.collect_daily_ips:
            self.daily_ip_sets.append(
                np.unique(np.fromiter(map(address_key, ips), np.int64, len(ips)))
            )
        if self.collect_daily_peers:
            self.daily_peer_sets.append(peer_ids)

    def mean_daily_observed(self) -> float:
        if not self.daily_observed_counts:
            return 0.0
        return float(np.mean(self.daily_observed_counts))

    def window_range(self, end_day_index: int, window_days: int) -> range:
        """The recorded day indices of the ``window_days`` days ending at
        ``end_day_index`` (inclusive).  Requires ``collect_daily_ips``."""
        if not self.collect_daily_ips:
            raise RuntimeError("daily IP collection was not enabled for this monitor")
        if window_days <= 0:
            raise ValueError("window_days must be positive")
        start = max(0, end_day_index - window_days + 1)
        return range(start, min(end_day_index + 1, len(self.daily_ip_sets)))

    def keys_in_window(self, end_day_index: int, window_days: int) -> np.ndarray:
        """Sorted unique address keys observed in the ``window_days`` days
        ending at ``end_day_index`` (inclusive)."""
        days = self.window_range(end_day_index, window_days)
        if not days:
            return np.empty(0, dtype=np.int64)
        return np.unique(
            np.concatenate([self.daily_ip_sets.keys(day) for day in days])
        )

    def ips_in_window(self, end_day_index: int, window_days: int) -> Set[str]:
        """:meth:`keys_in_window` as address strings (for output)."""
        keys = self.keys_in_window(end_day_index, window_days)
        return set(format_addresses(keys).tolist())


@dataclass
class PeerObservationAggregate:
    """Campaign-long aggregate of one observed peer."""

    peer_id: bytes
    first_day: int
    last_day: int
    days_observed: Set[int] = field(default_factory=set)
    ipv4_addresses: Set[str] = field(default_factory=set)
    ipv6_addresses: Set[str] = field(default_factory=set)
    countries: Set[str] = field(default_factory=set)
    asns: Set[int] = field(default_factory=set)
    primary_tier_days: Counter = field(default_factory=Counter)
    advertised_flag_days: Counter = field(default_factory=Counter)
    floodfill_days: int = 0
    reachable_days: int = 0
    unreachable_days: int = 0
    firewalled_days: int = 0
    hidden_days: int = 0

    def record(self, snapshot: PeerDaySnapshot) -> None:
        day = snapshot.day
        self.first_day = min(self.first_day, day)
        self.last_day = max(self.last_day, day)
        self.days_observed.add(day)
        if snapshot.has_valid_ip:
            if snapshot.ip is not None:
                self.ipv4_addresses.add(snapshot.ip)
            if snapshot.ipv6 is not None:
                self.ipv6_addresses.add(snapshot.ipv6)
            if snapshot.country_code:
                self.countries.add(snapshot.country_code)
            if snapshot.asn is not None:
                self.asns.add(snapshot.asn)
        self.primary_tier_days[snapshot.bandwidth_tier.value] += 1
        for tier in snapshot.advertised_tiers:
            self.advertised_flag_days[tier.value] += 1
        if snapshot.floodfill:
            self.floodfill_days += 1
        if snapshot.reachable:
            self.reachable_days += 1
        else:
            self.unreachable_days += 1
        if snapshot.firewalled:
            self.firewalled_days += 1
        if snapshot.hidden:
            self.hidden_days += 1

    # ------------------------------------------------------------------ #
    # Derived per-peer quantities
    # ------------------------------------------------------------------ #
    @property
    def observed_day_count(self) -> int:
        return len(self.days_observed)

    @property
    def observation_span_days(self) -> int:
        """Days between first and last observation, inclusive (intermittent
        presence length as defined for Figure 7)."""
        return self.last_day - self.first_day + 1

    def longest_continuous_run(self) -> int:
        """Longest run of consecutive observed days (continuous presence)."""
        if not self.days_observed:
            return 0
        days = sorted(self.days_observed)
        longest = 1
        current = 1
        for previous, current_day in zip(days, days[1:]):
            if current_day == previous + 1:
                current += 1
                longest = max(longest, current)
            else:
                current = 1
        return longest

    @property
    def has_known_ip(self) -> bool:
        return bool(self.ipv4_addresses or self.ipv6_addresses)

    @property
    def address_count(self) -> int:
        return len(self.ipv4_addresses)

    @property
    def is_mostly_floodfill(self) -> bool:
        return self.floodfill_days * 2 > self.observed_day_count

    def dominant_tier(self) -> Optional[str]:
        if not self.primary_tier_days:
            return None
        return self.primary_tier_days.most_common(1)[0][0]


@dataclass
class DailyStats:
    """Network-wide daily statistics computed from the observation union."""

    day: int
    observed_peers: int = 0
    observed_ipv4: int = 0
    observed_ipv6: int = 0
    observed_all_ips: int = 0
    known_ip_peers: int = 0
    unknown_ip_peers: int = 0
    firewalled_peers: int = 0
    hidden_peers: int = 0
    overlap_peers: int = 0
    floodfill_peers: int = 0
    reachable_peers: int = 0
    unreachable_peers: int = 0
    tier_counts: Dict[str, int] = field(default_factory=dict)
    new_peer_ids: int = 0


class _LogAccumulator:
    """Columnar per-peer accumulators behind :class:`ObservationLog`.

    All arrays are indexed by the population's *global* peer index; the
    per-peer aggregate objects are reconstructed from them on demand.

    Address captures are stored as a *columnar event log* rather than a
    per-peer dict of tuples: one row per (peer, IP-assignment version)
    capture, appended only when a peer is observed with a valid IP and a
    new assignment version, so the event count tracks rotations, not
    peer-days.  Addresses are integer keys and countries are interned to
    small integer codes (``country_labels``), so the geography and bridge
    analyses reduce to ``np.unique`` passes over integer columns.
    """

    def __init__(self, store: PeerColumns) -> None:
        self.store = store
        self.horizon = store.horizon_days
        self.capacity = 0
        #: High-water mark of accumulator array memory (bytes), updated on
        #: every (re)allocation — recorded by the perf-budget benchmark.
        self.peak_nbytes = 0
        # ---- columnar address-event log -------------------------------- #
        self.event_count = 0
        self._event_capacity = 1024
        self.event_peer = np.empty(self._event_capacity, dtype=np.int64)
        self.event_asn = np.empty(self._event_capacity, dtype=np.int64)
        self.event_country = np.empty(self._event_capacity, dtype=np.int32)
        self.event_addr4 = np.empty(self._event_capacity, dtype=np.int64)
        self.event_addr6 = np.empty(self._event_capacity, dtype=np.int64)
        self.country_codes: Dict[str, int] = {}
        self.country_labels: List[str] = []
        self._allocate(max(store.size, 1024))

    def country_code(self, country: object) -> int:
        """Intern a country string to a stable small code (-1 for unset)."""
        if not country:
            return -1
        code = self.country_codes.get(country)  # type: ignore[arg-type]
        if code is None:
            code = len(self.country_labels)
            self.country_codes[str(country)] = code
            self.country_labels.append(str(country))
        return code

    def ensure_events(self, extra: int) -> None:
        needed = self.event_count + extra
        if needed <= self._event_capacity:
            return
        while self._event_capacity < needed:
            self._event_capacity *= 2
        for name in (
            "event_peer",
            "event_asn",
            "event_country",
            "event_addr4",
            "event_addr6",
        ):
            old = getattr(self, name)
            grown = np.empty(self._event_capacity, dtype=old.dtype)
            grown[: self.event_count] = old[: self.event_count]
            setattr(self, name, grown)
        self._note_memory()

    @property
    def nbytes(self) -> int:
        """Approximate resident size of the accumulator arrays."""
        total = (
            self.observed.nbytes
            + self.first_day.nbytes
            + self.last_day.nbytes
            + self.firewalled_days.nbytes
            + self.hidden_days.nbytes
            + self.reachable_days.nbytes
            + self.unreachable_days.nbytes
            + self.floodfill_days.nbytes
            + self.seen_version.nbytes
            + self.ipv4_count.nbytes
            + self.event_peer.nbytes
            + self.event_asn.nbytes
            + self.event_country.nbytes
            + self.event_addr4.nbytes
            + self.event_addr6.nbytes
        )
        return total

    def _note_memory(self) -> None:
        self.peak_nbytes = max(self.peak_nbytes, self.nbytes)

    def _allocate(self, capacity: int) -> None:
        old_capacity = self.capacity
        arrays = {}
        names = (
            "observed",
            "first_day",
            "last_day",
            "firewalled_days",
            "hidden_days",
            "reachable_days",
            "unreachable_days",
            "floodfill_days",
            "seen_version",
            "ipv4_count",
        )
        if old_capacity:
            arrays = {name: getattr(self, name) for name in names}
        self.observed = np.zeros((capacity, self.horizon), dtype=bool)
        self.first_day = np.full(capacity, -1, dtype=np.int32)
        self.last_day = np.full(capacity, -1, dtype=np.int32)
        self.firewalled_days = np.zeros(capacity, dtype=np.int32)
        self.hidden_days = np.zeros(capacity, dtype=np.int32)
        self.reachable_days = np.zeros(capacity, dtype=np.int32)
        self.unreachable_days = np.zeros(capacity, dtype=np.int32)
        self.floodfill_days = np.zeros(capacity, dtype=np.int32)
        self.seen_version = np.zeros(capacity, dtype=np.int64)
        #: Observed IPv4 addresses per peer, counted as address-change
        #: capture events (appended only when the assignment version
        #: advanced).  Each allocation takes a fresh host index, so the
        #: count equals the number of *distinct* addresses as long as an
        #: AS's host counter has not wrapped its 254×254 address space —
        #: far beyond any supported campaign scale (a paper-scale 90-day
        #: run allocates well under 64K addresses even in the
        #: heaviest-weight AS); the columnar/aggregate equivalence tests
        #: cover the supported scales.
        self.ipv4_count = np.zeros(capacity, dtype=np.int32)
        for name, array in arrays.items():
            getattr(self, name)[:old_capacity] = array
        self.capacity = capacity
        self._note_memory()

    def ensure(self, size: int) -> None:
        if size > self.capacity:
            self._allocate(max(size, self.capacity * 2))


class ObservationLog:
    """Campaign-wide aggregation over the union of all monitoring routers."""

    def __init__(self) -> None:
        self._peers_rows: Dict[bytes, PeerObservationAggregate] = {}
        self.daily: List[DailyStats] = []
        self._rows_recorded = False
        self._acc: Optional[_LogAccumulator] = None
        self._peers_cache: Optional[Dict[bytes, PeerObservationAggregate]] = None
        self._peers_cache_days = -1

    @property
    def peers(self) -> Dict[bytes, PeerObservationAggregate]:
        """Per-peer aggregates (materialised lazily for columnar runs)."""
        if self._acc is None:
            return self._peers_rows
        if self._peers_cache is None or self._peers_cache_days != len(self.daily):
            self._peers_cache = self._materialise_peers()
            self._peers_cache_days = len(self.daily)
        return self._peers_cache

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_day(
        self, view: DayView, observed_indices: Union[np.ndarray, Iterable[int]]
    ) -> DailyStats:
        """Record the union of monitor observations for one day.

        One log records through one path: mixing columnar and
        snapshot-backed views would leave two aggregate stores for the
        same peers, so it is rejected.
        """
        if view.columns is not None:
            if self._rows_recorded:
                raise ValueError(
                    "cannot mix columnar and row-oriented recording in one log"
                )
            return self._record_day_columnar(
                view, _observed_mask(view, observed_indices)
            )
        if self._acc is not None:
            raise ValueError(
                "cannot mix columnar and row-oriented recording in one log"
            )
        self._rows_recorded = True
        return self._record_day_rows(view, _observed_indices(observed_indices))

    def _record_day_columnar(self, view: DayView, mask: np.ndarray) -> DailyStats:
        cols = view.columns
        assert cols is not None
        store = cols.columns
        day = view.day
        if self._acc is None:
            self._acc = _LogAccumulator(store)
        elif self._acc.store is not store:
            raise ValueError(
                "log already recorded views from a different population"
            )
        acc = self._acc
        acc.ensure(store.size)

        observed_global = cols.indices[mask]
        firewalled = cols.firewalled[mask]
        hidden = cols.hidden[mask]
        valid = cols.valid_ip[mask]
        reachable = cols.reachable[mask]
        floodfill = cols.floodfill[mask]
        previously_firewalled = acc.firewalled_days[observed_global] > 0
        previously_hidden = acc.hidden_days[observed_global] > 0
        first_seen = acc.first_day[observed_global] < 0

        stats = DailyStats(day=day)
        stats.observed_peers = int(observed_global.size)
        stats.new_peer_ids = int(np.count_nonzero(first_seen))
        stats.known_ip_peers = int(np.count_nonzero(valid))
        stats.unknown_ip_peers = stats.observed_peers - stats.known_ip_peers
        stats.firewalled_peers = int(np.count_nonzero(firewalled))
        stats.hidden_peers = int(np.count_nonzero(hidden))
        stats.overlap_peers = int(
            np.count_nonzero(firewalled & previously_hidden)
        ) + int(np.count_nonzero(hidden & previously_firewalled))
        stats.floodfill_peers = int(np.count_nonzero(floodfill))
        stats.reachable_peers = int(np.count_nonzero(reachable))
        stats.unreachable_peers = stats.observed_peers - stats.reachable_peers
        tier_counts = np.bincount(
            cols.tier_code[mask], minlength=len(TIER_ORDER)
        )
        stats.tier_counts = {
            TIER_ORDER[code].value: int(count)
            for code, count in enumerate(tier_counts)
            if count
        }
        ip_selection = mask & cols.valid_ip
        ipv4 = np.unique(cols.addr4[ip_selection])
        ipv6 = np.unique(cols.addr6[ip_selection])
        stats.observed_ipv4 = int(np.count_nonzero(ipv4 >= 0))
        stats.observed_ipv6 = int(np.count_nonzero(ipv6 >= 0))
        stats.observed_all_ips = stats.observed_ipv4 + stats.observed_ipv6

        # Accumulate per-peer state (indices within a day are unique, so
        # plain fancy-indexed += is safe).
        acc.observed[observed_global, day] = True
        acc.first_day[observed_global[first_seen]] = day
        acc.last_day[observed_global] = day
        acc.firewalled_days[observed_global[firewalled]] += 1
        acc.hidden_days[observed_global[hidden]] += 1
        acc.floodfill_days[observed_global[floodfill]] += 1
        acc.reachable_days[observed_global[reachable]] += 1
        acc.unreachable_days[observed_global[~reachable]] += 1

        versions = cols.version[mask]
        address_changed = valid & (acc.seen_version[observed_global] != versions)
        if np.any(address_changed):
            changed_global = observed_global[address_changed]
            added = int(changed_global.size)
            acc.ensure_events(added)
            start = acc.event_count
            end = start + added
            acc.event_peer[start:end] = changed_global
            acc.event_asn[start:end] = cols.asn[mask][address_changed]
            countries = cols.country[mask][address_changed].tolist()
            acc.event_country[start:end] = [
                acc.country_code(country) for country in countries
            ]
            acc.event_addr4[start:end] = cols.addr4[mask][address_changed]
            acc.event_addr6[start:end] = cols.addr6[mask][address_changed]
            acc.event_count = end
            acc.seen_version[changed_global] = versions[address_changed]
            acc.ipv4_count[changed_global] += 1

        self.daily.append(stats)
        return stats

    def _record_day_rows(
        self, view: DayView, observed_indices: Iterable[int]
    ) -> DailyStats:
        """Reference row-oriented recording (snapshot-backed views)."""
        stats = DailyStats(day=view.day)
        tier_counts: Counter = Counter()
        ipv4: Set[str] = set()
        ipv6: Set[str] = set()
        for index in observed_indices:
            snapshot = view.snapshots[int(index)]
            aggregate = self._peers_rows.get(snapshot.peer_id)
            is_new = aggregate is None
            if aggregate is None:
                aggregate = PeerObservationAggregate(
                    peer_id=snapshot.peer_id,
                    first_day=snapshot.day,
                    last_day=snapshot.day,
                )
                self._peers_rows[snapshot.peer_id] = aggregate
            previously_firewalled = aggregate.firewalled_days > 0
            previously_hidden = aggregate.hidden_days > 0
            aggregate.record(snapshot)

            stats.observed_peers += 1
            if is_new:
                stats.new_peer_ids += 1
            if snapshot.has_valid_ip:
                stats.known_ip_peers += 1
                if snapshot.ip is not None:
                    ipv4.add(snapshot.ip)
                if snapshot.ipv6 is not None:
                    ipv6.add(snapshot.ipv6)
            else:
                stats.unknown_ip_peers += 1
            if snapshot.firewalled:
                stats.firewalled_peers += 1
                if previously_hidden:
                    stats.overlap_peers += 1
            if snapshot.hidden:
                stats.hidden_peers += 1
                if previously_firewalled:
                    stats.overlap_peers += 1
            if snapshot.floodfill:
                stats.floodfill_peers += 1
            if snapshot.reachable:
                stats.reachable_peers += 1
            else:
                stats.unreachable_peers += 1
            tier_counts[snapshot.bandwidth_tier.value] += 1
        stats.observed_ipv4 = len(ipv4)
        stats.observed_ipv6 = len(ipv6)
        stats.observed_all_ips = len(ipv4) + len(ipv6)
        stats.tier_counts = dict(tier_counts)
        self.daily.append(stats)
        return stats

    # ------------------------------------------------------------------ #
    # Lazy aggregate materialisation (columnar runs)
    # ------------------------------------------------------------------ #
    def _materialise_peers(self) -> Dict[bytes, PeerObservationAggregate]:
        acc = self._acc
        assert acc is not None
        store = acc.store
        size = store.size
        first_day = acc.first_day[:size]
        observed_rows = np.nonzero(first_day >= 0)[0]
        observed_matrix = acc.observed[:size]
        # nonzero() is row-major, so the day numbers come out grouped by
        # peer; split them at the per-peer counts.
        _, all_days = observed_matrix.nonzero()
        counts = np.count_nonzero(observed_matrix[observed_rows], axis=1)
        day_groups = np.split(all_days, np.cumsum(counts)[:-1]) if counts.size else []

        peer_ids = store.peer_ids
        tier_codes = store.tier_code
        advertised_masks = store.advertised_mask
        events_by_peer = self._events_by_peer()
        peers: Dict[bytes, PeerObservationAggregate] = {}
        for row, global_index in enumerate(observed_rows.tolist()):
            day_list = day_groups[row]
            observed_days = int(day_list.size)
            aggregate = PeerObservationAggregate(
                peer_id=peer_ids[global_index],
                first_day=int(first_day[global_index]),
                last_day=int(acc.last_day[global_index]),
                days_observed=set(day_list.tolist()),
                floodfill_days=int(acc.floodfill_days[global_index]),
                reachable_days=int(acc.reachable_days[global_index]),
                unreachable_days=int(acc.unreachable_days[global_index]),
                firewalled_days=int(acc.firewalled_days[global_index]),
                hidden_days=int(acc.hidden_days[global_index]),
            )
            for event in events_by_peer.get(global_index, ()):
                ip = format_address(int(acc.event_addr4[event]))
                ipv6_addr = format_address(int(acc.event_addr6[event]))
                country_code = int(acc.event_country[event])
                asn = int(acc.event_asn[event])
                if ip is not None:
                    aggregate.ipv4_addresses.add(ip)
                if ipv6_addr is not None:
                    aggregate.ipv6_addresses.add(ipv6_addr)
                if country_code >= 0:
                    aggregate.countries.add(acc.country_labels[country_code])
                if asn >= 0:
                    aggregate.asns.add(asn)
            aggregate.primary_tier_days[TIER_ORDER[tier_codes[global_index]].value] = (
                observed_days
            )
            # Advertised tiers come from the static bitmask column (not the
            # row-oriented records), so the compatibility view also works on
            # populations restored from the npz cache, which carry no
            # PeerRecord objects.
            mask_bits = int(advertised_masks[global_index])
            for code, tier in enumerate(TIER_ORDER):
                if mask_bits & (1 << code):
                    aggregate.advertised_flag_days[tier.value] += observed_days
            peers[aggregate.peer_id] = aggregate
        return peers

    # ------------------------------------------------------------------ #
    # Aggregate accessors
    # ------------------------------------------------------------------ #
    @property
    def days_recorded(self) -> int:
        return len(self.daily)

    @property
    def unique_peer_count(self) -> int:
        if self._acc is not None:
            size = self._acc.store.size
            return int(np.count_nonzero(self._acc.first_day[:size] >= 0))
        return len(self._peers_rows)

    def known_ip_peers(self) -> List[PeerObservationAggregate]:
        return [p for p in self.peers.values() if p.has_known_ip]

    # ------------------------------------------------------------------ #
    # Columnar analysis accessors (no aggregate materialisation)
    # ------------------------------------------------------------------ #
    def _observed_rows(self) -> np.ndarray:
        """Global peer rows observed at least once (columnar runs only)."""
        acc = self._acc
        assert acc is not None
        size = acc.store.size
        return np.nonzero(acc.first_day[:size] >= 0)[0]

    def _events_by_peer(self) -> Dict[int, List[int]]:
        """Event indices grouped by global peer row (insertion order kept)."""
        acc = self._acc
        assert acc is not None
        groups: Dict[int, List[int]] = {}
        for event, peer in enumerate(acc.event_peer[: acc.event_count].tolist()):
            groups.setdefault(peer, []).append(event)
        return groups

    def country_counts(self) -> Counter:
        """Observed peers per country (each peer counts once per country).

        Columnar runs reduce the interned address-event columns with one
        ``np.unique`` pass over (peer, country) keys; row-oriented runs
        fall back to the per-peer aggregates.
        """
        counts: Counter = Counter()
        if self._acc is None:
            for aggregate in self.peers.values():
                for country in aggregate.countries:
                    counts[country] += 1
            return counts
        acc = self._acc
        n = acc.event_count
        n_labels = len(acc.country_labels)
        if not n or not n_labels:
            return counts
        codes = acc.event_country[:n]
        valid = codes >= 0
        keys = acc.event_peer[:n][valid] * np.int64(n_labels) + codes[valid]
        unique_codes = np.unique(keys) % n_labels
        per_code = np.bincount(unique_codes.astype(np.int64), minlength=n_labels)
        for code, count in enumerate(per_code.tolist()):
            if count:
                counts[acc.country_labels[code]] = count
        return counts

    def _unique_peer_asn_pairs(self) -> np.ndarray:
        """Distinct (peer row, ASN) keys packed as ``row << 32 | asn``."""
        acc = self._acc
        assert acc is not None
        n = acc.event_count
        if not n:
            return np.empty(0, dtype=np.int64)
        asns = acc.event_asn[:n]
        valid = asns >= 0
        keys = (acc.event_peer[:n][valid] << np.int64(32)) | asns[valid]
        return np.unique(keys)

    def asn_counts(self) -> Counter:
        """Observed peers per ASN (each peer counts once per AS)."""
        counts: Counter = Counter()
        if self._acc is None:
            for aggregate in self.peers.values():
                for asn in aggregate.asns:
                    counts[asn] += 1
            return counts
        pairs = self._unique_peer_asn_pairs()
        if not pairs.size:
            return counts
        asns, per_asn = np.unique(pairs & np.int64(0xFFFFFFFF), return_counts=True)
        for asn, count in zip(asns.tolist(), per_asn.tolist()):
            counts[int(asn)] = int(count)
        return counts

    def asn_span_counts(self) -> Counter:
        """Histogram of distinct-AS counts over known-IP peers (Figure 12)."""
        counts: Counter = Counter()
        if self._acc is None:
            for aggregate in self.peers.values():
                if aggregate.has_known_ip:
                    counts[len(aggregate.asns)] += 1
            return counts
        acc = self._acc
        rows = self._observed_rows()
        known_peers = int(np.count_nonzero(acc.ipv4_count[rows] > 0))
        pairs = self._unique_peer_asn_pairs()
        if pairs.size:
            _, spans = np.unique(pairs >> np.int64(32), return_counts=True)
            span_values, span_counts = np.unique(spans, return_counts=True)
            for span, count in zip(span_values.tolist(), span_counts.tolist()):
                counts[int(span)] = int(count)
            known_peers -= int(spans.size)
        if known_peers > 0:
            # Known-IP peers whose captures never carried a resolvable ASN.
            counts[0] += known_peers
        return counts

    def unknown_ip_classification(self) -> Dict[str, int]:
        """Campaign-level unknown-IP split (ever firewalled / hidden / both /
        never addressed), straight off the accumulator counters."""
        if self._acc is None:
            ever_firewalled = ever_hidden = both = never_addressed = 0
            for aggregate in self.peers.values():
                was_firewalled = aggregate.firewalled_days > 0
                was_hidden = aggregate.hidden_days > 0
                if was_firewalled:
                    ever_firewalled += 1
                if was_hidden:
                    ever_hidden += 1
                if was_firewalled and was_hidden:
                    both += 1
                if not aggregate.has_known_ip:
                    never_addressed += 1
        else:
            acc = self._acc
            rows = self._observed_rows()
            was_firewalled = acc.firewalled_days[rows] > 0
            was_hidden = acc.hidden_days[rows] > 0
            ever_firewalled = int(np.count_nonzero(was_firewalled))
            ever_hidden = int(np.count_nonzero(was_hidden))
            both = int(np.count_nonzero(was_firewalled & was_hidden))
            never_addressed = int(np.count_nonzero(acc.ipv4_count[rows] == 0))
        return {
            "ever_firewalled": ever_firewalled,
            "ever_hidden": ever_hidden,
            "both_statuses": both,
            "never_published_address": never_addressed,
        }

    def known_ip_keys(
        self, day: int, first_seen: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Known-IP peers observed on ``day``: (first days, owners, keys).

        With ``first_seen`` the peers are those *first* observed on
        ``day`` (the bridge-survival cohort).  ``first days`` has one entry
        per selected peer; ``keys`` lists every address key those peers
        were observed with over the whole campaign (IPv4 and IPv6), and
        ``owners`` the position in ``first days`` of each key's peer.  The
        bridge analyses consume this without materialising per-peer
        aggregates on columnar runs.
        """
        if self._acc is None:
            selected = [
                aggregate
                for aggregate in self.peers.values()
                if aggregate.has_known_ip
                and (
                    aggregate.first_day == day
                    if first_seen
                    else day in aggregate.days_observed
                )
            ]
            addresses = [a.ipv4_addresses | a.ipv6_addresses for a in selected]
            return (
                np.asarray([a.first_day for a in selected], dtype=np.int64),
                np.repeat(np.arange(len(selected)), [len(s) for s in addresses]),
                np.asarray(
                    [address_key(ip) for s in addresses for ip in s], dtype=np.int64
                ),
            )
        acc = self._acc
        size = acc.store.size
        if first_seen:
            rows = acc.first_day[:size] == day
        elif 0 <= day < acc.horizon:
            rows = acc.observed[:size, day]
        else:
            rows = np.zeros(size, dtype=bool)
        rows = np.nonzero(rows & (acc.ipv4_count[:size] > 0))[0]
        position = np.full(size, -1, dtype=np.int64)
        position[rows] = np.arange(rows.size)
        n = acc.event_count
        owner = position[acc.event_peer[:n]]
        events = owner >= 0
        owners = np.concatenate((owner[events], owner[events]))
        keys = np.concatenate(
            (acc.event_addr4[:n][events], acc.event_addr6[:n][events])
        )
        present = keys >= 0
        return acc.first_day[rows].astype(np.int64), owners[present], keys[present]

    def accumulator_memory_bytes(self) -> Tuple[int, int]:
        """(current, peak) accumulator array footprint in bytes (0 for
        row-oriented logs)."""
        if self._acc is None:
            return 0, 0
        return self._acc.nbytes, self._acc.peak_nbytes

    def presence_lengths(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per observed peer: (longest continuous run, observation span).

        Columnar runs answer straight from the accumulator's observation
        bitmatrix — one vectorised pass per recorded day for the run
        lengths — without materialising any
        :class:`PeerObservationAggregate`; row-oriented runs fall back to
        the per-peer aggregates.  Peer order is unspecified but consistent
        between the two returned arrays.
        """
        if self._acc is None:
            peers = list(self.peers.values())
            continuous = np.fromiter(
                (p.longest_continuous_run() for p in peers),
                dtype=np.int64,
                count=len(peers),
            )
            intermittent = np.fromiter(
                (p.observation_span_days for p in peers),
                dtype=np.int64,
                count=len(peers),
            )
            return continuous, intermittent
        acc = self._acc
        rows = self._observed_rows()
        intermittent = (
            acc.last_day[rows].astype(np.int64) - acc.first_day[rows] + 1
        )
        observed = acc.observed[rows]
        run = np.zeros(rows.size, dtype=np.int64)
        best = np.zeros(rows.size, dtype=np.int64)
        last_recorded_day = self.daily[-1].day if self.daily else -1
        for day in range(min(last_recorded_day + 1, acc.horizon)):
            run = (run + 1) * observed[:, day]
            np.maximum(best, run, out=best)
        return best, intermittent

    def ipv4_address_counts(self) -> np.ndarray:
        """Distinct observed IPv4 addresses per *known-IP* peer.

        The returned array has one entry per peer that was ever observed
        with a usable address (the Figure 8 population); order is
        unspecified.
        """
        if self._acc is None:
            return np.asarray(
                [p.address_count for p in self.peers.values() if p.has_known_ip],
                dtype=np.int64,
            )
        acc = self._acc
        rows = self._observed_rows()
        counts = acc.ipv4_count[rows]
        # Capture events require a valid IPv4, so a known-IP peer always
        # has ipv4_count > 0 (there are no IPv6-only known peers on either
        # recording path).
        return counts[counts > 0].astype(np.int64)

    def floodfill_qualified_counts(
        self, qualified_tier_values: Sequence[str]
    ) -> Tuple[int, int]:
        """(ever-floodfill peers, those whose primary tier is qualified)."""
        qualified_set = set(qualified_tier_values)
        if self._acc is None:
            floodfills = [p for p in self.peers.values() if p.floodfill_days > 0]
            qualified = sum(
                1
                for p in floodfills
                if (p.dominant_tier() or "L") in qualified_set
            )
            return len(floodfills), qualified
        acc = self._acc
        rows = self._observed_rows()
        floodfill = acc.floodfill_days[rows] > 0
        codes = acc.store.tier_code[rows][floodfill]
        qualified_codes = [
            code
            for code, tier in enumerate(TIER_ORDER)
            if tier.value in qualified_set
        ]
        qualified = int(np.count_nonzero(np.isin(codes, qualified_codes)))
        return int(np.count_nonzero(floodfill)), qualified

    def advertised_tier_breakdown(
        self, tier_values: Sequence[str]
    ) -> Tuple[Dict[str, Dict[str, int]], Dict[str, int]]:
        """Per-group advertised-flag counts for Table 1.

        Returns ``(counts, totals)`` where ``counts[group][tier]`` is the
        number of observed peers in ``group`` that ever advertised ``tier``
        and ``totals[group]`` the group's peer count, for the groups
        ``floodfill`` / ``reachable`` / ``unreachable`` / ``total``.
        Columnar runs reduce the static advertised-tier bitmask column
        under the accumulator's group masks; row-oriented runs fall back to
        the per-peer aggregates.
        """
        groups = ("floodfill", "reachable", "unreachable", "total")
        counts: Dict[str, Dict[str, int]] = {
            g: {t: 0 for t in tier_values} for g in groups
        }
        totals: Dict[str, int] = {g: 0 for g in groups}
        if self._acc is None:
            for aggregate in self.peers.values():
                advertised = set(aggregate.advertised_flag_days)
                peer_groups = ["total"]
                if aggregate.floodfill_days > 0:
                    peer_groups.append("floodfill")
                if aggregate.reachable_days > 0:
                    peer_groups.append("reachable")
                if aggregate.unreachable_days > 0:
                    peer_groups.append("unreachable")
                for group in peer_groups:
                    totals[group] += 1
                    for tier in advertised:
                        if tier in counts[group]:
                            counts[group][tier] += 1
            return counts, totals
        acc = self._acc
        rows = self._observed_rows()
        advertised_mask = acc.store.advertised_mask[rows]
        group_masks = {
            "floodfill": acc.floodfill_days[rows] > 0,
            "reachable": acc.reachable_days[rows] > 0,
            "unreachable": acc.unreachable_days[rows] > 0,
            "total": np.ones(rows.size, dtype=bool),
        }
        tier_by_value = {tier.value: code for code, tier in enumerate(TIER_ORDER)}
        for group, group_mask in group_masks.items():
            totals[group] = int(np.count_nonzero(group_mask))
            masked = advertised_mask[group_mask]
            for tier_value in tier_values:
                code = tier_by_value.get(tier_value)
                if code is None:
                    continue
                counts[group][tier_value] = int(
                    np.count_nonzero(masked & np.uint8(1 << code))
                )
        return counts, totals

    def mean_daily_observed(self) -> float:
        if not self.daily:
            return 0.0
        return float(np.mean([d.observed_peers for d in self.daily]))

    def mean_daily(self, attribute: str) -> float:
        """Mean over days of one :class:`DailyStats` attribute."""
        if not self.daily:
            return 0.0
        return float(np.mean([getattr(d, attribute) for d in self.daily]))

    def mean_daily_tier_counts(self) -> Dict[str, float]:
        if not self.daily:
            return {}
        totals: Counter = Counter()
        for stats in self.daily:
            totals.update(stats.tier_counts)
        return {tier: count / len(self.daily) for tier, count in totals.items()}
