"""Sharded on-disk persistence of :class:`~repro.sim.exposure.SharedExposure`.

Building a paper-scale shared exposure — the columnar population plus one
day of exposure draws per campaign day — dominates every CLI run's wall
time.  Within one process the :class:`~repro.sim.exposure.ExposureEngine`
LRU already amortises it; this module extends the cache *across processes*
by persisting each entry as an on-disk **bundle** keyed by a digest of its
cache key, so a second ``repro`` invocation of the same scenario skips the
population rebuild entirely — and, unlike the v1 monolithic ``.npz``
format, a restored entry *streams* from disk instead of inflating into
RAM.

Bundle layout (``FORMAT_VERSION`` = 3)
--------------------------------------
One ``<digest>/`` directory per ``(PopulationConfig, observation_seed)``
key, where ``digest`` is :func:`exposure_digest` — a SHA-256 prefix over
the canonical JSON of every config field plus the observation seed and
format version.  Day state is prefix-stable, so a bundle holding *N* days
serves any request for ≤ N days; requests for more days rebuild and
replace the bundle.

::

    <digest>/
      meta.json            # config, seed, days, peers, shard size,
                           # per-day online/arrival/departure counts.
                           # Written LAST: a bundle without meta.json is
                           # invisible to readers (a clean cache miss).
      store/<column>.bin   # one raw little-endian array per store column
                           # (STORE_DTYPES) + the peer-id blob/lengths,
                           # mapped read-only into a MemmapPeerColumns.
      days-00000/<column>.bin
      days-00002/...       # day-range shards: each file concatenates the
                           # per-day arrays of DAY_DTYPES for the days in
                           # [start, start + shard_days); per-day slice
                           # boundaries follow from meta's online counts.

Every array is written to a temporary name and renamed into place, and the
whole bundle is assembled in a hidden temp directory that is renamed over
the final path only after ``meta.json`` lands — concurrent readers never
see a partial bundle.  Addresses are ``int64`` keys (``addr4`` / ``addr6``,
−1 = none; see :mod:`repro.sim.addresses`), read back without any
decoding; the country column is fixed-width bytes (S4, empty = ``None``).
Per-monitor observation masks are *not* persisted — they are pure
functions of the observation seed and the persisted exposure draws, so
restored runs recompute them bit-identically.  The digest folds in the
format version, so a format bump turns every older bundle into a cache
miss (it is never read, and ``repro cache ls`` flags it as a stale
format); a bundle whose ``meta.json`` names another format is evicted and
rebuilt like any other unreadable one.

Restored entries are **read-only**: the population behind them is a
:class:`RestoredPopulation` over a
:class:`~repro.sim.columns.MemmapPeerColumns`, which cannot advance days
or materialise row-oriented ``PeerRecord`` objects (the streamed analyses
never need either).  Asking a restored entry for more days than it
persisted raises; the engine responds by rebuilding from scratch.

Cache hygiene: :func:`enforce_cache_budget` bounds the directory to
``REPRO_CACHE_MAX_BYTES`` by evicting the least-recently-*used* bundle
first (use = a successful load; tracked by an explicit ``os.utime`` bump
on ``meta.json``, so the policy survives ``relatime`` mounts), and
:func:`evict_corrupt` deletes unreadable bundles loudly so the next run
rebuilds them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import IO, Dict, List, Optional, Tuple

import numpy as np

from .columns import MemmapPeerColumns
from .population import PopulationConfig

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_SHARD_DAYS",
    "exposure_digest",
    "cache_path",
    "shard_start",
    "BundleWriter",
    "BundleReader",
    "save_exposure",
    "load_exposure",
    "read_meta",
    "cache_entries",
    "clear_cache",
    "evict_corrupt",
    "enforce_cache_budget",
    "bundle_size",
    "human_bytes",
    "RestoredPopulation",
]

_LOG = logging.getLogger(__name__)

FORMAT_VERSION = 3

#: Version of the *simulation semantics* behind a cached exposure.  Bump
#: this whenever population generation or exposure draw order changes
#: (e.g. a documented RNG draw-order break): the digest folds it in, so
#: stale entries generated by older simulation code become cache misses
#: instead of being silently served alongside a changed generator.
SIMULATION_EPOCH = 1

#: Days per on-disk shard (and per mask-grid shard for streamed runs).
#: Every bundle is written with it; readers follow meta.json's value.
#: A streamed campaign keeps up to two shards' pages plus one shard's
#: mask grid resident, so the shard size sets streaming memory:
#: measured at scale 10 (10-day campaign, ~360K peers), shard_days=2
#: peaked at 526 MiB vs 653 MiB (4) and 747 MiB (8) — and ran fastest,
#: because smaller windows recycle pages before reclaim kicks in.
DEFAULT_SHARD_DAYS = 2

_META_NAME = "meta.json"
_TMP_PREFIX = ".exposure-"

#: Store-level columns (over the global peer index) a bundle persists.
STORE_DTYPES: Dict[str, str] = dict(MemmapPeerColumns.STORE_DTYPES)

#: Per-day columns, each of length ``online count`` for its day.  The
#: first group mirrors :class:`~repro.sim.columns.DayColumns`; the last
#: three are the day's exposure draws.
DAY_DTYPES: Dict[str, str] = {
    "indices": "int64",
    "firewalled": "bool",
    "hidden": "bool",
    "reachable": "bool",
    "valid_ip": "bool",
    "addr4": "int64",
    "addr6": "int64",
    "country": "S4",
    "asn": "int64",
    "version": "int64",
    "flood": "bool",
    "tunnel": "bool",
    "visibility": "float64",
}


def exposure_digest(config: PopulationConfig, observation_seed: int) -> str:
    """Stable digest of one exposure cache key (config + observation seed)."""
    payload = json.dumps(
        {
            "format": FORMAT_VERSION,
            "simulation_epoch": SIMULATION_EPOCH,
            "config": dataclasses.asdict(config),
            "observation_seed": int(observation_seed),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def cache_path(
    directory: Path, config: PopulationConfig, observation_seed: int
) -> Path:
    """The bundle directory one cache key maps to."""
    return Path(directory) / exposure_digest(config, observation_seed)


def shard_start(day: int, shard_days: int) -> int:
    """First day of the shard containing ``day``."""
    return day - day % shard_days


def _shard_dirname(start: int) -> str:
    return f"days-{start:05d}"


def _encode_strings(values: np.ndarray, width: int) -> np.ndarray:
    """Object array of ASCII strings / None → fixed-width bytes ('' = None)."""
    return np.asarray(
        [b"" if value is None else str(value).encode("ascii") for value in values],
        dtype=f"S{width}",
    )


def _decode_strings(values: np.ndarray) -> np.ndarray:
    """Fixed-width bytes → object array of str-or-None ('' → None).

    Vectorised: the unicode cast and the object boxing both happen in C.
    """
    out = values.astype("U").astype(object)
    out[values == b""] = None
    return out


class RestoredPopulation:
    """Read-only stand-in for an :class:`I2PPopulation` loaded from cache.

    Exposes the (memmap-backed) columnar store the analyses need; day
    evolution and row-oriented ``PeerRecord`` access are unavailable (the
    cache holds arrays, not Python peer objects).
    """

    def __init__(self, config: PopulationConfig, columns) -> None:
        self.config = config
        self._columns = columns
        #: Empty — records are not persisted; snapshot materialisation off a
        #: restored population is unsupported by design.
        self.peers = columns.records

    @property
    def columns(self):
        return self._columns

    def day_view(self, day: int):
        raise RuntimeError(
            "this population was restored from the exposure cache and is "
            "read-only; read day state through SharedExposure.view(day)"
        )

    def estimated_network_size(self) -> int:
        return self.config.target_daily_population

    def total_identities(self) -> int:
        return self._columns.size


# --------------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------------- #
def _write_array(directory: Path, name: str, array: np.ndarray) -> None:
    """Atomically write one raw column file (temp name + rename)."""
    handle, temp_name = tempfile.mkstemp(dir=str(directory), prefix=".col-")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(np.ascontiguousarray(array).tobytes())
        os.replace(temp_name, directory / f"{name}.bin")
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


class BundleWriter:
    """Incremental writer of one exposure bundle.

    Days are appended one at a time (:meth:`add_day`) and flushed to the
    current day-range shard as raw column appends, so the writer never
    holds more than one day of encoded arrays — the out-of-core population
    build streams through it with bounded RSS.  The bundle is assembled in
    a hidden temp directory next to the final path and published atomically
    by :meth:`finalise` (meta.json written last, then one rename).
    """

    def __init__(
        self,
        directory: Path,
        config: PopulationConfig,
        observation_seed: int,
        shard_days: int = DEFAULT_SHARD_DAYS,
    ) -> None:
        if shard_days <= 0:
            raise ValueError("shard_days must be positive")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.observation_seed = int(observation_seed)
        self.shard_days = int(shard_days)
        self.final_path = cache_path(directory, config, observation_seed)
        self._temp = Path(
            tempfile.mkdtemp(
                dir=str(directory), prefix=f"{_TMP_PREFIX}{self.final_path.name}-"
            )
        )
        self._days = 0
        self._online: List[int] = []
        self._arrivals: List[int] = []
        self._departures: List[int] = []
        self._peers: Optional[int] = None
        self._handles: Dict[str, IO[bytes]] = {}
        self._open_shard: Optional[int] = None
        self._published = False

    # ------------------------------------------------------------------ #
    def _shard_handles(self, start: int) -> Dict[str, IO[bytes]]:
        if self._open_shard != start:
            self._close_handles()
            shard_dir = self._temp / _shard_dirname(start)
            shard_dir.mkdir()
            self._handles = {
                name: open(shard_dir / f"{name}.bin", "ab")
                for name in DAY_DTYPES
            }
            self._open_shard = start
        return self._handles

    def _close_handles(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles = {}
        self._open_shard = None

    def add_day(self, view, draw) -> None:
        """Append one day's columns + exposure draws to the current shard."""
        cols = view.columns
        assert cols is not None, "only columnar exposures can be persisted"
        day = self._days
        arrays: Dict[str, np.ndarray] = {
            "indices": np.asarray(cols.indices, dtype=np.int64),
            "firewalled": np.asarray(cols.firewalled, dtype=bool),
            "hidden": np.asarray(cols.hidden, dtype=bool),
            "reachable": np.asarray(cols.reachable, dtype=bool),
            "valid_ip": np.asarray(cols.valid_ip, dtype=bool),
            "addr4": np.asarray(cols.addr4, dtype=np.int64),
            "addr6": np.asarray(cols.addr6, dtype=np.int64),
            "country": _encode_strings(cols.country, 4),
            "asn": np.asarray(cols.asn, dtype=np.int64),
            "version": np.asarray(cols.version, dtype=np.int64),
            "flood": np.asarray(draw.flood_exposed, dtype=bool),
            "tunnel": np.asarray(draw.tunnel_exposed, dtype=bool),
            "visibility": np.asarray(draw.visibility, dtype=np.float64),
        }
        handles = self._shard_handles(shard_start(day, self.shard_days))
        for name, array in arrays.items():
            expected = np.dtype(DAY_DTYPES[name])
            if array.dtype != expected:
                array = array.astype(expected)
            handles[name].write(np.ascontiguousarray(array).tobytes())
        self._online.append(int(cols.count))
        self._arrivals.append(int(view.new_arrivals))
        self._departures.append(int(view.departures))
        self._days += 1

    def write_store(self, store) -> None:
        """Persist the store-level columns (call once, before finalise)."""
        store_dir = self._temp / "store"
        store_dir.mkdir(exist_ok=True)
        size = store.size
        peer_ids = store.peer_ids
        _write_array(
            store_dir,
            "peer_id_blob",
            np.frombuffer(b"".join(peer_ids.tolist()), dtype=np.uint8),
        )
        _write_array(
            store_dir,
            "peer_id_lengths",
            np.asarray([len(p) for p in peer_ids], dtype=np.int32),
        )
        for name, dtype in STORE_DTYPES.items():
            _write_array(
                store_dir, name, np.asarray(getattr(store, name), dtype=dtype)
            )
        self._peers = int(size)

    def finalise(self) -> Path:
        """Seal and publish the bundle; returns the final path."""
        if self._peers is None:
            raise RuntimeError("write_store must be called before finalise")
        self._close_handles()
        meta = {
            "format_version": FORMAT_VERSION,
            "simulation_epoch": SIMULATION_EPOCH,
            "config": dataclasses.asdict(self.config),
            "observation_seed": self.observation_seed,
            "days": self._days,
            "peers": self._peers,
            "shard_days": self.shard_days,
            "online": self._online,
            "new_arrivals": self._arrivals,
            "departures": self._departures,
        }
        handle, temp_name = tempfile.mkstemp(dir=str(self._temp), prefix=".meta-")
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            json.dump(meta, stream)
        os.replace(temp_name, self._temp / _META_NAME)
        # Publish: drop any previous bundle, then one rename.  A reader that
        # already mapped the old files keeps valid handles (POSIX unlink
        # semantics); new readers see either the old complete bundle or the
        # new one.
        if self.final_path.exists():
            _remove_bundle(self.final_path)
        os.replace(self._temp, self.final_path)
        self._published = True
        return self.final_path

    def abort(self) -> None:
        """Discard the partial bundle (safe to call after finalise)."""
        self._close_handles()
        if not self._published:
            shutil.rmtree(self._temp, ignore_errors=True)


def save_exposure(exposure, directory: Path) -> Path:
    """Persist a (fully built) :class:`SharedExposure` entry; returns the path.

    Only the days materialised so far are persisted.  The write is atomic
    at bundle granularity, so concurrent readers never see a partial
    bundle.
    """
    writer = BundleWriter(
        Path(directory), exposure.population_config, exposure.observation_seed
    )
    try:
        for day in range(exposure.days_materialised):
            writer.add_day(exposure.views[day], exposure._exposures[day])
        writer.write_store(exposure.population.columns)
        return writer.finalise()
    except BaseException:
        writer.abort()
        raise


# --------------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------------- #
def read_meta(path: Path) -> dict:
    """Read just the bundle's meta record (cheap: one small JSON file).

    Lets the engine reject a too-short bundle before paying for any shard
    I/O.  Raises ``FileNotFoundError`` for a missing/unpublished bundle.
    """
    with open(Path(path) / _META_NAME, "r", encoding="utf-8") as stream:
        return json.load(stream)


class BundleReader:
    """Windowed reader over one bundle: maps shards on demand, drops them
    when the consumer moves past (``munmap`` returns the pages, so the
    process high-water tracks the *window*, not the campaign)."""

    #: Shards kept mapped at once (current + one lookback for analyses).
    MAX_OPEN_SHARDS = 2

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        meta = read_meta(self.path)
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported exposure cache format {meta.get('format_version')!r}"
            )
        self.meta = meta
        self.config = PopulationConfig(**meta["config"])
        self.observation_seed = int(meta["observation_seed"])
        self.days = int(meta["days"])
        self.peers = int(meta["peers"])
        self.shard_days = int(meta["shard_days"])
        self.online: List[int] = [int(v) for v in meta["online"]]
        self.new_arrivals: List[int] = [int(v) for v in meta["new_arrivals"]]
        self.departures: List[int] = [int(v) for v in meta["departures"]]
        if len(self.online) != self.days:
            raise ValueError("bundle meta day counts do not match days")
        #: Byte offset of each day within its shard, per column element
        #: count (all day columns share the online-count lengths).
        self._day_offset: List[int] = []
        for day in range(self.days):
            if day % self.shard_days == 0:
                offset = 0
            self._day_offset.append(offset)
            offset += self.online[day]
        self._shard_maps: "Dict[int, Dict[str, np.memmap]]" = {}
        self._store: Optional[MemmapPeerColumns] = None

    # ------------------------------------------------------------------ #
    def _map_column(self, directory: Path, name: str, dtype: str) -> np.memmap:
        file_path = directory / f"{name}.bin"
        dt = np.dtype(dtype)
        stat = file_path.stat()
        if stat.st_size % dt.itemsize:
            raise ValueError(
                f"truncated column file {file_path} "
                f"({stat.st_size} bytes is not a multiple of {dt.itemsize})"
            )
        if stat.st_size == 0:
            return np.empty(0, dtype=dt)
        return np.memmap(file_path, dtype=dt, mode="r")

    def _shard(self, start: int) -> Dict[str, np.memmap]:
        maps = self._shard_maps.get(start)
        if maps is None:
            shard_dir = self.path / _shard_dirname(start)
            ndays = min(self.shard_days, self.days - start)
            expected = sum(self.online[start : start + ndays])
            maps = {}
            for name, dtype in DAY_DTYPES.items():
                file_path = shard_dir / f"{name}.bin"
                dt = np.dtype(dtype)
                size = file_path.stat().st_size
                if size != expected * dt.itemsize:
                    raise ValueError(
                        f"shard column {file_path} holds {size} bytes, "
                        f"expected {expected * dt.itemsize}"
                    )
                maps[name] = (
                    np.memmap(file_path, dtype=dt, mode="r")
                    if size
                    else np.empty(0, dtype=dt)
                )
            self._shard_maps[start] = maps
            while len(self._shard_maps) > self.MAX_OPEN_SHARDS:
                oldest = min(k for k in self._shard_maps if k != start)
                del self._shard_maps[oldest]
        return maps

    def day_array(self, day: int, column: str) -> np.ndarray:
        """The raw (undecoded) on-disk array of one day column."""
        if not 0 <= day < self.days:
            raise IndexError(f"day {day} outside persisted range [0, {self.days})")
        start = shard_start(day, self.shard_days)
        begin = self._day_offset[day]
        return self._shard(start)[column][begin : begin + self.online[day]]

    def store(self) -> MemmapPeerColumns:
        """The memmap-backed peer store (built once, cached)."""
        if self._store is None:
            store_dir = self.path / "store"
            columns = {
                name: self._map_column(store_dir, name, dtype)
                for name, dtype in STORE_DTYPES.items()
            }
            for name in columns:
                if columns[name].shape[0] != self.peers:
                    raise ValueError(
                        f"store column {name!r} has {columns[name].shape[0]} "
                        f"rows, expected {self.peers}"
                    )
            self._store = MemmapPeerColumns(
                horizon_days=int(self.config.horizon_days),
                size=self.peers,
                columns=columns,
                peer_id_blob=self._map_column(store_dir, "peer_id_blob", "uint8"),
                peer_id_lengths=self._map_column(
                    store_dir, "peer_id_lengths", "int32"
                ),
            )
        return self._store

    def release_before(self, day: int) -> None:
        """Unmap shards that end before ``day`` (streamed consumers)."""
        for start in [
            s for s in self._shard_maps if s + self.shard_days <= day
        ]:
            del self._shard_maps[start]

    def close(self) -> None:
        self._shard_maps.clear()


def load_exposure(path: Path):
    """Load a persisted bundle; returns a streaming ``CachedExposure``.

    Raises ``ValueError`` for unknown format versions and propagates I/O
    errors; callers (the engine) treat any failure as a cache miss.  Day
    state is *not* read here — the returned entry decodes shards lazily.
    A successful load bumps the bundle's LRU timestamp.
    """
    from .exposure import CachedExposure  # circular-import guard

    reader = BundleReader(path)
    # Touch every shard's metadata up front so a truncated bundle fails the
    # load (and gets evicted) instead of failing mid-campaign.
    for start in range(0, reader.days, reader.shard_days):
        reader._shard(start)
    reader.release_before(reader.days)
    reader.store()
    population = RestoredPopulation(reader.config, reader.store())
    _touch_bundle(path)
    return CachedExposure(
        population_config=reader.config,
        observation_seed=reader.observation_seed,
        population=population,
        reader=reader,
    )


# --------------------------------------------------------------------------- #
# Cache maintenance
# --------------------------------------------------------------------------- #
def _is_bundle(path: Path) -> bool:
    return path.is_dir() and (path / _META_NAME).is_file()


def _touch_bundle(path: Path) -> None:
    """Bump a bundle's recency marker (meta.json atime+mtime → now).

    The LRU budget sorts on this timestamp; an explicit ``utime`` keeps the
    policy meaningful on ``relatime``/``noatime`` mounts where plain reads
    do not update atime.
    """
    try:
        os.utime(Path(path) / _META_NAME)
    except OSError:  # pragma: no cover - racing eviction
        pass


def _remove_bundle(path: Path) -> None:
    """Delete a bundle so readers can never see it half-removed.

    ``meta.json`` goes first — from that point the directory is invisible
    to :func:`read_meta`/:func:`load_exposure` — then the tree.
    """
    path = Path(path)
    try:
        (path / _META_NAME).unlink()
    except OSError:
        pass
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        try:
            path.unlink()
        except OSError:
            pass


def bundle_size(path: Path) -> int:
    """Total on-disk bytes of one bundle (or legacy archive file)."""
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += (Path(root) / name).stat().st_size
            except OSError:  # pragma: no cover - racing eviction
                pass
    return total


def human_bytes(count: int) -> str:
    """``14231552`` → ``'13.6 MiB'`` (for ``repro cache ls``)."""
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def evict_corrupt(path: Path, error: BaseException) -> bool:
    """Warn about and delete an unreadable cache entry; never raises.

    Called when loading an *existing* bundle fails — a truncated shard, a
    foreign directory, bad JSON meta, a stale schema.  Deleting it turns
    every future request for the entry into one clean rebuild-and-
    overwrite instead of a parse failure per run.  Returns whether the
    entry was actually removed.
    """
    _LOG.warning(
        "evicting corrupt exposure cache entry %s (%s: %s); the entry will "
        "be rebuilt",
        path,
        type(error).__name__,
        error,
    )
    path = Path(path)
    existed = path.exists()
    _remove_bundle(path)
    return existed and not path.exists()


def cache_entries(directory: Path) -> List[Dict[str, object]]:
    """Metadata of every cache entry in ``directory`` (for ``repro cache ls``).

    Bundles come first (sorted by digest); bundles of an older format and
    leftover v1 ``.npz`` archives are listed too, flagged with an
    ``error`` — they are dead weight the current format will never read,
    kept visible so ``cache clear`` stays an informed decision.
    """
    directory = Path(directory)
    entries: List[Dict[str, object]] = []
    if not directory.is_dir():
        return entries
    for path in sorted(directory.iterdir()):
        if _is_bundle(path):
            entry: Dict[str, object] = {
                "path": path,
                "digest": path.name,
                "bytes": bundle_size(path),
            }
            try:
                meta = read_meta(path)
                version = meta.get("format_version")
                if version != FORMAT_VERSION:
                    entry["error"] = f"stale format {version}"
                else:
                    entry.update(
                        days=meta.get("days"),
                        peers=meta.get("peers"),
                        shard_days=meta.get("shard_days"),
                        seed=meta.get("config", {}).get("seed"),
                        daily_population=meta.get("config", {}).get(
                            "target_daily_population"
                        ),
                        observation_seed=meta.get("observation_seed"),
                    )
            except Exception:  # noqa: BLE001 - corrupt/foreign bundle
                entry["error"] = "unreadable"
            entries.append(entry)
        elif path.is_file() and path.suffix == ".npz":
            entries.append(
                {
                    "path": path,
                    "digest": path.stem,
                    "bytes": path.stat().st_size,
                    "error": "legacy v1 archive",
                }
            )
    return entries


def clear_cache(directory: Path) -> int:
    """Delete every cache entry in ``directory``; returns the count removed.

    Also sweeps orphaned ``.exposure-*`` temp directories/files that a
    process killed mid-save may have left behind (not counted).
    """
    removed = 0
    directory = Path(directory)
    if not directory.is_dir():
        return removed
    for path in list(directory.iterdir()):
        if _is_bundle(path) or (path.is_file() and path.suffix == ".npz"):
            _remove_bundle(path)
            removed += 1
        elif path.name.startswith(_TMP_PREFIX):
            _remove_bundle(path)
    return removed


def _bundle_recency(path: Path) -> float:
    """LRU timestamp of one entry: newest of meta atime/mtime."""
    probe = path / _META_NAME if path.is_dir() else path
    try:
        stat = probe.stat()
    except OSError:
        return 0.0
    return max(stat.st_atime, stat.st_mtime)


def enforce_cache_budget(
    directory: Path,
    max_bytes: Optional[int],
    protect: Optional[Path] = None,
) -> List[Path]:
    """Evict least-recently-used entries until the cache fits ``max_bytes``.

    ``protect`` (typically the bundle just written or loaded) is never
    evicted, so a single over-budget entry still functions as a cache of
    size one.  Stale temp directories older than an hour are swept first.
    Evictions are logged; returns the evicted paths.
    """
    if max_bytes is None:
        return []
    if max_bytes < 0:
        raise ValueError("max_bytes must be non-negative")
    directory = Path(directory)
    if not directory.is_dir():
        return []
    protect = None if protect is None else Path(protect)
    now = time.time()
    for path in list(directory.iterdir()):
        if path.name.startswith(_TMP_PREFIX) and now - _bundle_recency(path) > 3600:
            _remove_bundle(path)
    candidates: List[Tuple[float, Path, int]] = []
    total = 0
    for path in directory.iterdir():
        if _is_bundle(path) or (path.is_file() and path.suffix == ".npz"):
            size = bundle_size(path)
            total += size
            candidates.append((_bundle_recency(path), path, size))
    evicted: List[Path] = []
    for recency, path, size in sorted(candidates):
        if total <= max_bytes:
            break
        if protect is not None and path == protect:
            continue
        _remove_bundle(path)
        total -= size
        evicted.append(path)
        _LOG.info(
            "evicted exposure cache entry %s (%s, last used %s) to fit the "
            "%s cache budget",
            path.name,
            human_bytes(size),
            time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(recency)),
            human_bytes(max_bytes),
        )
    return evicted
