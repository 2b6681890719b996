"""Struct-of-arrays storage for the synthetic peer population.

The measurement pipeline's hot loop asks one question ~2.7M times per
paper-scale campaign: *what does peer i look like on day d?*  Answering it
through per-peer ``PeerDaySnapshot`` dataclasses costs one Python object
allocation (plus attribute churn) per peer-day.  :class:`PeerColumns`
stores the same facts once, as NumPy columns over a global peer index:

* static attributes (activity, base visibility, visibility class, tier,
  floodfill flag, membership window, port) written at peer creation;
* a presence bitmatrix ``(peers × horizon_days)`` replacing the per-peer
  Python presence lists, so "who is online on day d" is one column slice;
* the *current* IP assignment (IPv4 and IPv6 address keys — see
  :mod:`repro.sim.addresses` — ASN, country, a version counter bumped on
  rotation) updated in place by the daily churn step.

:class:`DayColumns` is the per-day slice of those columns restricted to
the peers online that day — the payload behind a columnar
:class:`~repro.sim.population.DayView`.  Downstream consumers (the
observation model, monitoring routers, the observation log) operate on
these arrays directly; row-oriented ``PeerDaySnapshot`` objects are only
materialised lazily for callers that still want them.

Arrays grow by capacity doubling; all public accessors return views
trimmed to the live ``size``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..netdb.routerinfo import BandwidthTier
from .addresses import NO_ADDRESS, format_addresses
from .ip import IpAssignment
from .peer import VisibilityClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .peer import PeerRecord

__all__ = [
    "VIS_CODE",
    "VIS_PUBLIC",
    "VIS_FIREWALLED",
    "VIS_HIDDEN",
    "VIS_FLAPPING",
    "TIER_ORDER",
    "PeerColumns",
    "MemmapPeerColumns",
    "DayColumns",
]

#: Stable integer codes for the visibility classes.
VIS_PUBLIC, VIS_FIREWALLED, VIS_HIDDEN, VIS_FLAPPING = 0, 1, 2, 3

VIS_CODE: Dict[VisibilityClass, int] = {
    VisibilityClass.PUBLIC: VIS_PUBLIC,
    VisibilityClass.FIREWALLED: VIS_FIREWALLED,
    VisibilityClass.HIDDEN: VIS_HIDDEN,
    VisibilityClass.FLAPPING: VIS_FLAPPING,
}

#: Bandwidth tiers in code order (``tier_code`` indexes into this tuple).
TIER_ORDER: Tuple[BandwidthTier, ...] = tuple(BandwidthTier)

_TIER_CODE: Dict[BandwidthTier, int] = {tier: i for i, tier in enumerate(TIER_ORDER)}


class PeerColumns:
    """Growable struct-of-arrays store over the global peer index.

    With ``retain_records=False`` the per-peer ``PeerRecord`` objects are
    *not* kept after their columns are extracted — the dominant RAM cost of
    a paper-scale population.  Lean stores cannot materialise row-oriented
    snapshots (``records`` stays empty), which the streamed analyses never
    need; the out-of-core exposure build uses this mode.
    """

    def __init__(
        self,
        horizon_days: int,
        initial_capacity: int = 1024,
        retain_records: bool = True,
    ) -> None:
        if horizon_days <= 0:
            raise ValueError("horizon_days must be positive")
        self.horizon_days = horizon_days
        self.size = 0
        self._capacity = max(16, initial_capacity)
        self.retain_records = retain_records
        #: The row-oriented records, index-aligned with the columns.  Shared
        #: with :class:`~repro.sim.population.I2PPopulation.peers`.  Empty
        #: when ``retain_records`` is off.
        self.records: List["PeerRecord"] = []
        self._allocate(self._capacity)

    # ------------------------------------------------------------------ #
    # Storage management
    # ------------------------------------------------------------------ #
    def _allocate(self, capacity: int) -> None:
        self._peer_ids = np.empty(capacity, dtype=object)
        self._activity = np.zeros(capacity, dtype=np.float64)
        self._base_visibility = np.zeros(capacity, dtype=np.float64)
        self._vis_class = np.zeros(capacity, dtype=np.uint8)
        self._tier_code = np.zeros(capacity, dtype=np.int16)
        self._advertised_mask = np.zeros(capacity, dtype=np.uint8)
        self._floodfill = np.zeros(capacity, dtype=bool)
        self._supports_ipv6 = np.zeros(capacity, dtype=bool)
        self._static_ip = np.zeros(capacity, dtype=bool)
        self._join_day = np.zeros(capacity, dtype=np.int32)
        self._leave_day = np.zeros(capacity, dtype=np.int32)
        self._port = np.zeros(capacity, dtype=np.int32)
        self._presence = np.zeros((capacity, self.horizon_days), dtype=bool)
        self._cur_addr4 = np.full(capacity, NO_ADDRESS, dtype=np.int64)
        self._cur_addr6 = np.full(capacity, NO_ADDRESS, dtype=np.int64)
        self._cur_country = np.empty(capacity, dtype=object)
        self._cur_asn = np.full(capacity, -1, dtype=np.int64)
        self._cur_version = np.zeros(capacity, dtype=np.int64)

    def _grow(self) -> None:
        old = self.__dict__.copy()
        self._capacity *= 2
        self._allocate(self._capacity)
        n = self.size
        for name in (
            "_peer_ids",
            "_activity",
            "_base_visibility",
            "_vis_class",
            "_tier_code",
            "_advertised_mask",
            "_floodfill",
            "_supports_ipv6",
            "_static_ip",
            "_join_day",
            "_leave_day",
            "_port",
            "_presence",
            "_cur_addr4",
            "_cur_addr6",
            "_cur_country",
            "_cur_asn",
            "_cur_version",
        ):
            getattr(self, name)[:n] = old[name][:n]

    def append(
        self,
        record: "PeerRecord",
        static_ip: bool,
        assignment: IpAssignment,
    ) -> int:
        """Append one peer's columns; returns its global index."""
        if self.size == self._capacity:
            self._grow()
        i = self.size
        if record.index != i:
            raise ValueError(
                f"record index {record.index} does not match column row {i}"
            )
        if self.retain_records:
            self.records.append(record)
        self._peer_ids[i] = record.peer_id
        self._activity[i] = record.activity
        self._base_visibility[i] = record.base_visibility
        self._vis_class[i] = VIS_CODE[record.visibility_class]
        self._tier_code[i] = _TIER_CODE[record.tier.primary_tier]
        advertised = 0
        for tier in record.tier.advertised_tiers:
            advertised |= 1 << _TIER_CODE[tier]
        self._advertised_mask[i] = advertised
        self._floodfill[i] = record.tier.floodfill
        self._supports_ipv6[i] = record.supports_ipv6
        self._static_ip[i] = static_ip
        self._join_day[i] = record.schedule.join_day
        self._leave_day[i] = record.schedule.leave_day
        self._port[i] = record.port
        presence = np.asarray(record.presence, dtype=bool)
        self._presence[i, : presence.shape[0]] = presence[: self.horizon_days]
        self.size = i + 1
        self.set_assignment(i, assignment)
        return i

    def set_assignment(self, index: int, assignment: IpAssignment) -> None:
        """Install a peer's current IP assignment and bump its version."""
        self._cur_addr4[index] = assignment.addr4
        self._cur_addr6[index] = (
            assignment.addr6 if self._supports_ipv6[index] else NO_ADDRESS
        )
        self._cur_country[index] = assignment.country_code
        self._cur_asn[index] = -1 if assignment.asn is None else assignment.asn
        self._cur_version[index] += 1

    # ------------------------------------------------------------------ #
    # Trimmed views
    # ------------------------------------------------------------------ #
    @property
    def peer_ids(self) -> np.ndarray:
        return self._peer_ids[: self.size]

    @property
    def activity(self) -> np.ndarray:
        return self._activity[: self.size]

    @property
    def base_visibility(self) -> np.ndarray:
        return self._base_visibility[: self.size]

    @property
    def vis_class(self) -> np.ndarray:
        return self._vis_class[: self.size]

    @property
    def tier_code(self) -> np.ndarray:
        return self._tier_code[: self.size]

    @property
    def advertised_mask(self) -> np.ndarray:
        """Per-peer bitmask of advertised tiers (bit ``i`` = ``TIER_ORDER[i]``)."""
        return self._advertised_mask[: self.size]

    @property
    def floodfill(self) -> np.ndarray:
        return self._floodfill[: self.size]

    @property
    def supports_ipv6(self) -> np.ndarray:
        return self._supports_ipv6[: self.size]

    @property
    def static_ip(self) -> np.ndarray:
        return self._static_ip[: self.size]

    @property
    def join_day(self) -> np.ndarray:
        return self._join_day[: self.size]

    @property
    def leave_day(self) -> np.ndarray:
        return self._leave_day[: self.size]

    @property
    def port(self) -> np.ndarray:
        return self._port[: self.size]

    @property
    def presence(self) -> np.ndarray:
        return self._presence[: self.size]

    @property
    def cur_addr4(self) -> np.ndarray:
        return self._cur_addr4[: self.size]

    @property
    def cur_addr6(self) -> np.ndarray:
        return self._cur_addr6[: self.size]

    @property
    def cur_country(self) -> np.ndarray:
        return self._cur_country[: self.size]

    @property
    def cur_asn(self) -> np.ndarray:
        return self._cur_asn[: self.size]

    @property
    def cur_version(self) -> np.ndarray:
        return self._cur_version[: self.size]

    # ------------------------------------------------------------------ #
    # Day queries
    # ------------------------------------------------------------------ #
    def online_indices(self, day: int) -> np.ndarray:
        """Global indices of the peers online on ``day``."""
        return np.nonzero(self._presence[: self.size, day])[0]

    def departures_on(self, day: int) -> int:
        return int(np.count_nonzero(self._leave_day[: self.size] == day))


class MemmapPeerColumns(PeerColumns):
    """A read-only :class:`PeerColumns` whose columns are disk-backed arrays.

    Built by the exposure-cache bundle reader: each column is an
    ``np.memmap`` over a raw shard file (written once by the population
    build, mapped read-only thereafter), so restoring a paper-scale store
    costs page-cache instead of RSS.  Only the columns the streamed
    analyses read are persisted; touching anything else (presence matrix,
    current-assignment state, visibility class) raises ``AttributeError``
    with a pointer at the bundle format.  Peer ids are decoded lazily from
    the id blob on first access and cached.
    """

    #: Columns a bundle persists, in on-disk order (name → dtype).
    STORE_DTYPES: Dict[str, str] = {
        "tier_code": "int16",
        "advertised_mask": "uint8",
        "floodfill": "bool",
        "join_day": "int32",
        "port": "int32",
        "activity": "float64",
        "base_visibility": "float64",
    }

    def __init__(
        self,
        horizon_days: int,
        size: int,
        columns: Dict[str, np.ndarray],
        peer_id_blob: np.ndarray,
        peer_id_lengths: np.ndarray,
    ) -> None:
        if horizon_days <= 0:
            raise ValueError("horizon_days must be positive")
        missing = set(self.STORE_DTYPES) - set(columns)
        if missing:
            raise ValueError(f"bundle store is missing columns: {sorted(missing)}")
        self.horizon_days = horizon_days
        self.size = int(size)
        self._capacity = self.size
        self.retain_records = False
        self.records: List["PeerRecord"] = []
        for name in self.STORE_DTYPES:
            array = columns[name]
            if array.shape[0] != self.size:
                raise ValueError(
                    f"store column {name!r} has {array.shape[0]} rows, "
                    f"expected {self.size}"
                )
            setattr(self, f"_{name}", array)
        self._id_blob = peer_id_blob
        self._id_lengths = peer_id_lengths
        self._decoded_peer_ids: Optional[np.ndarray] = None

    @property
    def peer_ids(self) -> np.ndarray:
        if self._decoded_peer_ids is None:
            blob = bytes(memoryview(self._id_blob))
            offsets = np.concatenate(
                ([0], np.cumsum(np.asarray(self._id_lengths, dtype=np.int64)))
            )
            decoded = np.empty(self.size, dtype=object)
            for i in range(self.size):
                decoded[i] = blob[offsets[i] : offsets[i + 1]]
            self._decoded_peer_ids = decoded
        return self._decoded_peer_ids

    def append(self, record, static_ip, assignment):  # pragma: no cover - guard
        raise RuntimeError("a memmap-backed peer store is read-only")

    def set_assignment(self, index, assignment):  # pragma: no cover - guard
        raise RuntimeError("a memmap-backed peer store is read-only")

    def __getattr__(self, name: str):
        # Only reached for attributes never set: a column the bundle format
        # does not persist.
        raise AttributeError(
            f"{type(self).__name__} has no {name!r}: the exposure-cache "
            f"bundle only persists {sorted(self.STORE_DTYPES)} plus peer "
            f"ids; rebuild the population for anything else"
        )


@dataclass
class DayColumns:
    """One day's columns, restricted (and index-aligned) to online peers.

    ``indices`` maps each row back to the global peer index; every other
    array has one entry per online peer in global-index order — the same
    order the row-oriented snapshot list used, so positional observation
    indices stay interchangeable between the two representations.
    Addresses are integer keys (``addr4`` / ``addr6``); :attr:`ip` and
    :attr:`ipv6` format them on first access, for output only.
    """

    day: int
    columns: PeerColumns
    indices: np.ndarray  # global peer indices (int64)
    peer_ids: np.ndarray  # object: bytes
    activity: np.ndarray  # float64
    base_visibility: np.ndarray  # float64
    tier_code: np.ndarray  # int16
    floodfill: np.ndarray  # bool
    reachable: np.ndarray  # bool
    firewalled: np.ndarray  # bool
    hidden: np.ndarray  # bool
    valid_ip: np.ndarray  # bool: has a usable public IPv4 today
    new_today: np.ndarray  # bool
    port: np.ndarray  # int32
    addr4: np.ndarray  # int64 IPv4 key (-1 = none)
    addr6: np.ndarray  # int64 IPv6 key (-1 = none)
    country: np.ndarray  # object: str
    asn: np.ndarray  # int64 (-1 = unknown)
    version: np.ndarray  # int64: IP-assignment version at capture time

    @property
    def count(self) -> int:
        return int(self.indices.size)

    @cached_property
    def ip(self) -> np.ndarray:
        """IPv4 addresses as an object array of ``str`` / ``None``."""
        return format_addresses(self.addr4)

    @cached_property
    def ipv6(self) -> np.ndarray:
        """IPv6 addresses as an object array of ``str`` / ``None``."""
        return format_addresses(self.addr6)
