"""Shared exposure engine: one population + exposure computation, many experiments.

The paper's figure suite re-runs near-identical measurement campaigns under
varied monitor configurations: the bandwidth sweep (Figure 3), the router
count sweep (Figure 4), and the main campaign (Figures 5–12) all observe
*the same* seeded population.  Before this module each experiment rebuilt
that population — and re-drew the daily exposure indicators — from scratch,
so a full figure suite cost N× the single-campaign wall time.

:class:`ExposureEngine` is a keyed cache fixing that:

* **Cache key** — ``(PopulationConfig, observation_seed)``.  The population
  config (which includes the population seed, target size, and horizon) and
  the derived observation seed fully determine every array this module
  produces; ``days`` is *not* part of the key — day state is materialised
  lazily and a longer request simply extends the shared prefix, so an
  exposure computed for a 3-day sweep is byte-identical to the first three
  days of the 10-day main campaign's exposure.
* **Shared day state** — per cached key, a :class:`SharedExposure` holds the
  fully built columnar population, one :class:`~repro.sim.population.DayView`
  per materialised day, and one :class:`~repro.sim.observation.DayExposure`
  (the flood/tunnel indicator draws shared by every monitor) per day.
  Downstream consumers treat all of it as read-only.
* **Per-monitor masks** — ``monitor_day_mask(spec, day)`` returns the boolean
  observation mask of one monitor on one day, computed once and cached
  bit-packed.  Masks are drawn from a generator seeded by
  ``derive_seed(observation_seed, "monitor:<name>|<mode>|<kbps>|day:<day>")``,
  so a monitor's mask depends only on the cache key, the spec, and the day —
  *not* on which other monitors exist.  Experiments therefore share masks:
  the ``ff-0`` router of the main campaign and the ``ff-0`` router of the
  router-count sweep see exactly the same peers.

RNG draw-order note (documented break)
--------------------------------------
The historical engine drew exposure indicators and per-monitor uniforms from
one sequential stream in fleet order, which made every day's draws depend on
the fleet size of all earlier days.  The engine replaces that with the keyed
scheme above: a dedicated ``"exposure"`` substream consumed day by day, plus
one derived substream per ``(monitor, day)``.  Campaign realisations at a
fixed seed therefore differ from pre-engine versions draw-by-draw, while all
marginal observation probabilities — and hence every calibrated figure shape
— are unchanged.  In exchange, cached and rebuilt-from-scratch experiments
are byte-identical, which `tests/sim/test_exposure.py` locks in.

Cache invalidation is by eviction only: entries are immutable once built, a
small LRU (default 4 keys) bounds memory, and :meth:`ExposureEngine.clear`
drops everything.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .columns import DayColumns
from .observation import DayExposure, MonitorSpec, ObservationModel
from .population import DayView, I2PPopulation, PopulationConfig
from .rng import derive_seed

__all__ = [
    "CachedExposure",
    "ExposureEngine",
    "SharedExposure",
    "build_out_of_core",
    "default_engine",
    "set_default_engine",
]


MonitorKey = Tuple[str, str, float]


def _monitor_key(spec: MonitorSpec) -> MonitorKey:
    return (spec.name, spec.mode.value, float(spec.shared_kbps))


def _mask_stream_name(spec: MonitorSpec, day: int) -> str:
    # repr() keeps full float precision: two monitors whose bandwidths agree
    # only to a few significant digits must not share a mask stream.
    return f"monitor:{spec.name}|{spec.mode.value}|{spec.shared_kbps!r}|day:{day}"


class SharedExposure:
    """Read-only day state shared by every experiment over one cache key."""

    def __init__(
        self, population_config: PopulationConfig, observation_seed: int
    ) -> None:
        self.population_config = population_config
        self.observation_seed = observation_seed
        self.population = I2PPopulation(config=population_config)
        self.views: List[DayView] = []
        self._exposures: List[DayExposure] = []
        self._exposure_rng = np.random.default_rng(
            derive_seed(observation_seed, "exposure")
        )
        #: Bit-packed masks keyed by (monitor key, day).
        self._masks: Dict[Tuple[MonitorKey, int], Tuple[np.ndarray, int]] = {}

    # ------------------------------------------------------------------ #
    # Day materialisation
    # ------------------------------------------------------------------ #
    @property
    def days_materialised(self) -> int:
        return len(self.views)

    def ensure_days(self, days: int) -> None:
        """Materialise day views and exposure draws for days ``[0, days)``.

        Extending is prefix-stable: the state for day *d* is identical no
        matter how many further days are materialised afterwards.
        """
        if days > self.population_config.horizon_days:
            raise ValueError(
                f"{days} days exceed the population horizon "
                f"{self.population_config.horizon_days}"
            )
        if days > len(self.views) and self.population._current_day != len(self.views) - 1:
            raise RuntimeError(
                "the shared population was advanced outside the exposure "
                "engine (e.g. via CampaignResult.population.day_view); the "
                "cached day state can no longer be extended — read days "
                "through SharedExposure.view(day), or use a private "
                "ExposureEngine for runs whose population you mutate"
            )
        while len(self.views) < days:
            view = self.population.day_view(len(self.views))
            self.views.append(view)
            self._exposures.append(
                ObservationModel.draw_day_exposure(view, self._exposure_rng)
            )

    def view(self, day: int) -> DayView:
        self.ensure_days(day + 1)
        return self.views[day]

    def exposure(self, day: int) -> DayExposure:
        self.ensure_days(day + 1)
        return self._exposures[day]

    def daily_online(self, days: int) -> List[int]:
        self.ensure_days(days)
        return [view.online_count for view in self.views[:days]]

    # ------------------------------------------------------------------ #
    # Per-monitor masks
    # ------------------------------------------------------------------ #
    def monitor_day_mask(self, spec: MonitorSpec, day: int) -> np.ndarray:
        """Boolean mask of the peers ``spec`` observes on ``day`` (cached)."""
        key = (_monitor_key(spec), day)
        cached = self._masks.get(key)
        if cached is None:
            probabilities = ObservationModel.observation_probabilities(
                self.exposure(day), spec
            )
            rng = np.random.default_rng(
                derive_seed(self.observation_seed, _mask_stream_name(spec, day))
            )
            mask = rng.random(probabilities.size) < probabilities
            self._masks[key] = (np.packbits(mask), mask.size)
            return mask
        packed, count = cached
        return np.unpackbits(packed, count=count).view(bool)

    def fleet_day_masks(
        self, specs: Sequence[MonitorSpec], day: int
    ) -> np.ndarray:
        """``(len(specs), online_count)`` boolean matrix for one day."""
        count = self.view(day).online_count
        masks = np.empty((len(specs), count), dtype=bool)
        for row, spec in enumerate(specs):
            masks[row] = self.monitor_day_mask(spec, day)
        return masks

    def prefetch_masks(
        self, specs: Sequence[MonitorSpec], days: int, start_day: int = 0
    ) -> None:
        """Compute (and cache) the ``(spec, day)`` masks for days
        ``[start_day, days)``.

        ``start_day`` lets streamed consumers prefetch one day-range shard
        at a time without re-deriving masks they already released.
        """
        self.ensure_days(days)
        for spec in specs:
            for day in range(start_day, days):
                if (_monitor_key(spec), day) not in self._masks:
                    self.monitor_day_mask(spec, day)

    # ------------------------------------------------------------------ #
    # Unions / coverage helpers
    # ------------------------------------------------------------------ #
    def union_day_mask(self, specs: Sequence[MonitorSpec], day: int) -> np.ndarray:
        masks = self.fleet_day_masks(specs, day)
        return np.logical_or.reduce(masks, axis=0)

    def cumulative_union_sizes(
        self, specs: Sequence[MonitorSpec], day: int
    ) -> List[int]:
        return ObservationModel.cumulative_union_sizes_from_masks(
            self.fleet_day_masks(specs, day)
        )

    # ------------------------------------------------------------------ #
    # Streaming hooks (real work only in CachedExposure)
    # ------------------------------------------------------------------ #
    @property
    def day_shard_size(self) -> int:
        """Days per shard for streamed iteration; 0 = everything in RAM.

        In-memory exposures report 0 so consumers process the whole
        horizon as one shard and *keep* every view and mask — sharing day
        state across experiments is the engine's core feature.  Disk-backed
        entries report their bundle's shard size so campaigns iterate (and
        release) shard by shard.
        """
        return 0

    def release_day_state(self, before_day: int) -> None:
        """Drop per-day state for days ``< before_day`` (no-op in RAM).

        Disk-backed exposures use this to keep the resident window at one
        shard; everything released is recomputed/re-read on demand, so
        calling it never changes results — only memory.
        """


class _LazyDays(Sequence):
    """Sequence façade over a bundle's per-day state, decoded on demand."""

    def __init__(self, count: int, fetch: Callable[[int], object]) -> None:
        self._count = count
        self._fetch = fetch

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self._fetch(i) for i in range(*index.indices(self._count))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("day index out of range")
        return self._fetch(index)


class CachedExposure(SharedExposure):
    """A read-only :class:`SharedExposure` streaming from a disk bundle.

    Day state lives in the bundle's day-range shards (see
    :mod:`repro.sim.exposure_cache` for the format) and is decoded lazily:
    ``views[day]`` / ``exposure(day)`` materialise one day at a time
    through a small decoded-day window, and :meth:`release_day_state`
    drops the window plus the underlying shard mappings as streamed
    consumers move on — so a paper-scale campaign's resident set tracks
    one shard, not the horizon.  Per-monitor masks are recomputed on
    demand from the persisted exposure draws, bit-identically to a freshly
    built entry.  Restored entries cannot be extended — the population
    behind them is an array-only stub — so asking for more days than were
    persisted raises ``RuntimeError`` (the engine reacts by rebuilding
    from scratch).
    """

    #: Decoded days kept at once: the day being recorded plus a little
    #: slack for consumers that look back one day.
    _DAY_WINDOW = 3

    def __init__(
        self,
        population_config: PopulationConfig,
        observation_seed: int,
        population,
        reader,
    ) -> None:
        self.population_config = population_config
        self.observation_seed = observation_seed
        self.population = population
        self._reader = reader
        self.views = _LazyDays(reader.days, lambda day: self._day_state(day)[0])
        self._exposures = _LazyDays(
            reader.days, lambda day: self._day_state(day)[1]
        )
        self._masks = {}
        self._day_cache: "OrderedDict[int, Tuple[DayView, DayExposure]]" = (
            OrderedDict()
        )
        #: Address-key columns per day, read only by the views'
        #: ``address_loader`` (never while recording).
        self._addresses: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    @property
    def days_materialised(self) -> int:
        return self._reader.days

    @property
    def day_shard_size(self) -> int:
        return int(self._reader.shard_days)

    def ensure_days(self, days: int) -> None:
        if days > self._reader.days:
            raise RuntimeError(
                f"this exposure was restored from the disk cache with only "
                f"{self._reader.days} day(s) materialised and cannot be "
                f"extended to {days}; rebuild through an ExposureEngine"
            )

    def daily_online(self, days: int) -> List[int]:
        self.ensure_days(days)
        return list(self._reader.online[:days])

    def release_day_state(self, before_day: int) -> None:
        for day in [d for d in self._day_cache if d < before_day]:
            del self._day_cache[day]
        for key in [k for k in self._masks if k[1] < before_day]:
            del self._masks[key]
        for day in [d for d in self._addresses if d < before_day]:
            del self._addresses[day]
        self._reader.release_before(before_day)

    # ------------------------------------------------------------------ #
    def _day_state(self, day: int) -> Tuple[DayView, DayExposure]:
        cached = self._day_cache.get(day)
        if cached is not None:
            self._day_cache.move_to_end(day)
            return cached
        self.ensure_days(day + 1)
        reader = self._reader
        store = self.population.columns
        from .exposure_cache import _decode_strings

        indices = np.asarray(reader.day_array(day, "indices"))
        day_columns = DayColumns(
            day=day,
            columns=store,
            indices=indices,
            peer_ids=store.peer_ids[indices],
            activity=np.asarray(store.activity[indices]),
            base_visibility=np.asarray(store.base_visibility[indices]),
            tier_code=np.asarray(store.tier_code[indices]),
            floodfill=np.asarray(store.floodfill[indices]),
            reachable=np.asarray(reader.day_array(day, "reachable")),
            firewalled=np.asarray(reader.day_array(day, "firewalled")),
            hidden=np.asarray(reader.day_array(day, "hidden")),
            valid_ip=np.asarray(reader.day_array(day, "valid_ip")),
            new_today=np.asarray(store.join_day[indices]) == day,
            port=np.asarray(store.port[indices]),
            addr4=np.asarray(reader.day_array(day, "addr4")),
            addr6=np.asarray(reader.day_array(day, "addr6")),
            country=_decode_strings(np.asarray(reader.day_array(day, "country"))),
            asn=np.asarray(reader.day_array(day, "asn")),
            version=np.asarray(reader.day_array(day, "version")),
        )
        view = DayView(
            day=day,
            new_arrivals=reader.new_arrivals[day],
            departures=reader.departures[day],
            columns=day_columns,
        )
        # Streamed monitors reach the day's address keys through this hook
        # instead of pinning the day's columns (see
        # core.monitor.DailyIpSets.append_deferred).
        view.address_loader = partial(self._day_addresses, day)
        draw = DayExposure(
            flood_exposed=np.asarray(reader.day_array(day, "flood")),
            tunnel_exposed=np.asarray(reader.day_array(day, "tunnel")),
            visibility=np.asarray(reader.day_array(day, "visibility")),
        )
        self._day_cache[day] = (view, draw)
        while len(self._day_cache) > self._DAY_WINDOW:
            self._day_cache.popitem(last=False)
        return view, draw

    def _day_addresses(self, day: int) -> Tuple[np.ndarray, np.ndarray]:
        """One day's addr4/addr6 key columns, read once and shared by every
        monitor's lazy address set for that day.

        Recording never calls this, so it keeps one shard resident; the
        analyses read each day's keys once instead of once per monitor.
        The keys are copied out of the shard mapping, so holding them
        keeps no shard mapped.
        """
        addresses = self._addresses.get(day)
        if addresses is None:
            addresses = (
                np.array(self._reader.day_array(day, "addr4")),
                np.array(self._reader.day_array(day, "addr6")),
            )
            self._addresses[day] = addresses
        return addresses


def build_out_of_core(
    population_config: PopulationConfig,
    observation_seed: int,
    days: int,
    directory,
) -> CachedExposure:
    """Build an exposure straight to a disk bundle and stream it back.

    The population is built *lean* (no row-oriented records) and every
    materialised day is encoded and flushed to the bundle immediately, so
    peak RSS is the mutable population plus one day of encode buffers —
    never the full day state.  The resulting entry is byte-identical to an
    in-memory build saved and restored: both paths draw from the same
    substreams in the same order (locked in by tests).
    """
    from . import exposure_cache

    if days <= 0:
        raise ValueError("days must be positive")
    if days > population_config.horizon_days:
        raise ValueError(
            f"{days} days exceed the population horizon "
            f"{population_config.horizon_days}"
        )
    population = I2PPopulation(config=population_config, retain_records=False)
    exposure_rng = np.random.default_rng(derive_seed(observation_seed, "exposure"))
    writer = exposure_cache.BundleWriter(directory, population_config, observation_seed)
    try:
        for day in range(days):
            view = population.day_view(day)
            draw = ObservationModel.draw_day_exposure(view, exposure_rng)
            writer.add_day(view, draw)
        writer.write_store(population.columns)
        path = writer.finalise()
    except BaseException:
        writer.abort()
        raise
    del population
    return exposure_cache.load_exposure(path)


def parse_byte_size(value: object, source: str) -> int:
    """``'512M'`` / ``'2GiB'`` / ``'1048576'`` → bytes (binary units)."""
    text = str(value).strip()
    multiplier = 1
    suffixes = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}
    lowered = text.lower()
    for ending in ("ib", "b"):
        if lowered.endswith(ending) and len(lowered) > len(ending):
            candidate = lowered[: -len(ending)]
            if candidate and candidate[-1] in suffixes:
                lowered = candidate
            break
    if lowered and lowered[-1] in suffixes:
        multiplier = suffixes[lowered[-1]]
        lowered = lowered[:-1]
    try:
        count = float(lowered)
    except ValueError:
        raise ValueError(
            f"{source} must be a byte count (number with optional K/M/G/T "
            f"suffix, e.g. 512M or 1.5G); got {value!r}"
        ) from None
    if count < 0:
        raise ValueError(f"{source} must be non-negative; got {value!r}")
    return int(count * multiplier)


class ExposureEngine:
    """LRU cache of :class:`SharedExposure` entries, optionally disk-backed.

    With ``cache_dir`` set, entries are persisted as sharded bundles keyed
    by a digest of ``(population config, observation seed)`` (see
    :mod:`repro.sim.exposure_cache`), and ``get`` consults the directory
    before building a population — so repeated CLI runs across *processes*
    reuse paper-scale populations.  Disk entries holding at least the
    requested number of days are loaded read-only (streaming from disk);
    shorter ones are rebuilt and replaced with the longer day range.

    ``backend`` picks how a cache miss is built: ``"in_memory"`` (the
    default) materialises the whole day range in RAM, ``"out_of_core"``
    streams it straight to a disk bundle through a lean population build,
    bounding peak RSS to roughly the mutable population — the backend for
    10–100× paper-scale campaigns (requires ``cache_dir``).

    First-run persistence is off the critical path: saves run on a
    background thread, and :meth:`flush` joins any writes still in flight.
    ``max_bytes`` bounds the cache directory with least-recently-used
    eviction after each save.
    """

    BACKENDS = ("in_memory", "out_of_core")

    def __init__(
        self,
        capacity: int = 4,
        cache_dir: Optional["os.PathLike"] = None,
        backend: str = "in_memory",
        max_bytes: Optional[int] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        backend = str(backend).replace("-", "_")
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown exposure backend {backend!r}; pick one of "
                f"{'/'.join(self.BACKENDS)}"
            )
        self.capacity = capacity
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        if backend == "out_of_core" and self.cache_dir is None:
            raise ValueError(
                "the out-of-core exposure backend streams through the disk "
                "cache and needs cache_dir (drop --no-cache / set --cache-dir)"
            )
        self.backend = backend
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._entries: "OrderedDict[Tuple[PopulationConfig, int], SharedExposure]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        #: Days already persisted per key (avoids rewriting unchanged files).
        self._persisted_days: Dict[Tuple[PopulationConfig, int], int] = {}
        #: In-flight background saves per key: (thread, days being saved).
        self._pending: Dict[
            Tuple[PopulationConfig, int], Tuple[threading.Thread, int]
        ] = {}

    def get(
        self,
        population_config: PopulationConfig,
        observation_seed: int,
        days: Optional[int] = None,
    ) -> SharedExposure:
        """The shared exposure for a key, built on first use.

        When ``days`` is given, at least that many days are materialised
        before returning.
        """
        key = (population_config, observation_seed)
        needed = 0 if days is None else days
        entry = self._entries.get(key)
        if entry is not None and (
            isinstance(entry, CachedExposure) and needed > entry.days_materialised
        ):
            # The restored entry is too short and cannot be extended.
            del self._entries[key]
            entry = None
        if entry is None:
            entry = self._load_from_disk(population_config, observation_seed, needed)
        if entry is None:
            self.misses += 1
            if self.backend == "out_of_core":
                entry = self._build_out_of_core(
                    population_config, observation_seed, needed
                )
            else:
                entry = SharedExposure(population_config, observation_seed)
        else:
            self.hits += 1
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        if days is not None:
            entry.ensure_days(days)
        self._maybe_persist(key, entry)
        return entry

    # ------------------------------------------------------------------ #
    # Disk cache
    # ------------------------------------------------------------------ #
    def _build_out_of_core(
        self,
        population_config: PopulationConfig,
        observation_seed: int,
        needed_days: int,
    ) -> "CachedExposure":
        days = needed_days if needed_days > 0 else population_config.horizon_days
        entry = build_out_of_core(
            population_config, observation_seed, days, self.cache_dir
        )
        key = (population_config, observation_seed)
        self._persisted_days[key] = entry.days_materialised
        if self.max_bytes is not None:
            from . import exposure_cache

            try:
                exposure_cache.enforce_cache_budget(
                    self.cache_dir, self.max_bytes, protect=entry._reader.path
                )
            except OSError:  # pragma: no cover - cache dir raced away
                pass
        return entry

    def _load_from_disk(
        self,
        population_config: PopulationConfig,
        observation_seed: int,
        needed_days: int,
    ) -> Optional[SharedExposure]:
        if self.cache_dir is None:
            return None
        from . import exposure_cache

        key = (population_config, observation_seed)
        pending = self._pending.get(key)
        if pending is not None:
            # A background save of this very key may still be in flight —
            # the on-disk state is unreadable-by-design until it lands.
            pending[0].join()
        path = exposure_cache.cache_path(
            self.cache_dir, population_config, observation_seed
        )
        if not (path / "meta.json").is_file():
            return None
        try:
            # Peek the meta record first: rejecting a too-short file must
            # not pay for decoding its full day state.
            meta = exposure_cache.read_meta(path)
            if needed_days > int(meta.get("days", -1)):
                return None
            entry = exposure_cache.load_exposure(path)
        except Exception as error:  # noqa: BLE001 - unreadable/corrupt/foreign
            # Any failure on an existing file (truncated zip, bad JSON
            # meta, missing keys, wrong schema) is a cache miss — but a
            # *loud* one: warn, evict the bad file, rebuild and overwrite.
            exposure_cache.evict_corrupt(path, error)
            return None
        if needed_days > entry.days_materialised:
            return None
        key = (population_config, observation_seed)
        self._persisted_days[key] = entry.days_materialised
        self.disk_hits += 1
        return entry

    def _maybe_persist(
        self, key: Tuple[PopulationConfig, int], entry: SharedExposure
    ) -> None:
        if self.cache_dir is None or isinstance(entry, CachedExposure):
            return
        days = entry.days_materialised
        if days <= 0 or days <= self._persisted_days.get(key, 0):
            return
        pending = self._pending.get(key)
        if pending is not None:
            if pending[0].is_alive() and pending[1] >= days:
                return
            pending[0].join()  # serialise writes of one key
            if days <= self._persisted_days.get(key, 0):
                return
        thread = threading.Thread(
            target=self._persist_now,
            args=(key, entry, days),
            name="repro-exposure-persist",
        )
        self._pending[key] = (thread, days)
        thread.start()

    def _persist_now(
        self, key: Tuple[PopulationConfig, int], entry: SharedExposure, days: int
    ) -> None:
        """Write one entry's bundle (runs on the persist thread).

        Day state is prefix-stable and ``entry.views`` only ever grows, so
        snapshotting ``days`` up front keeps the write consistent even
        while the main thread extends the same entry.
        """
        from . import exposure_cache

        try:
            path = exposure_cache.save_exposure(entry, self.cache_dir)
        except OSError:  # cache dir unwritable: stay in-memory only
            return
        if days > self._persisted_days.get(key, 0):
            self._persisted_days[key] = days
        if self.max_bytes is not None:
            try:
                exposure_cache.enforce_cache_budget(
                    self.cache_dir, self.max_bytes, protect=path
                )
            except OSError:  # pragma: no cover - cache dir raced away
                pass

    def flush(self) -> None:
        """Join background cache writes still in flight (idempotent)."""
        for thread, _days in list(self._pending.values()):
            thread.join()
        self._pending = {
            key: value
            for key, value in self._pending.items()
            if value[0].is_alive()
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        # An empty engine must stay truthy: callers write
        # ``engine or default_engine()`` style fallbacks and a fresh cache
        # is still a perfectly good engine.
        return True

    def clear(self) -> None:
        self._entries.clear()


_DEFAULT_ENGINE: Optional[ExposureEngine] = None


def default_engine() -> ExposureEngine:
    """The process-wide engine campaigns fall back to when none is passed."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExposureEngine()
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[ExposureEngine]) -> Optional[ExposureEngine]:
    """Replace the process-wide default engine; returns the previous one."""
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    return previous
