"""IP address assignment and residential address churn.

Section 5.2.2 of the paper documents the *IP address churn* phenomenon:
most ISPs rotate dynamic IPs for residential connections, so over the
three-month campaign 55 % of known-IP peers were associated with two or
more addresses, 45 % with exactly one, and a small group (460 peers,
0.65 %) with more than one hundred addresses; 8.4 % of peers appeared in
more than ten ASes (routers operated behind VPNs or Tor), with extremes of
39 ASes and 25 countries.

:class:`IpAssignmentManager` reproduces those dynamics: each peer has a
home AS, a per-peer address-change rate drawn from a heavy-tailed mixture,
and (rarely) a "nomadic" profile that hops across ASes and countries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .addresses import NO_ADDRESS, format_address
from .geo import AutonomousSystem, GeoRegistry

__all__ = ["AddressProfile", "IpAssignment", "IpAssignmentManager"]


#: One shared string per /16 — every profile in an AS points at the same
#: object, so recording the prefix costs one slot pointer per peer, not a
#: fresh ~60-byte string (the scale-10 memory gate rides on this).
_PREFIX_STRINGS: dict = {}


def _home_prefix(asys: AutonomousSystem) -> str:
    """The /16 CIDR prefix an AS allocates its synthetic addresses from.

    Derived from the already-sampled AS, so recording it draws no RNG —
    populations stay bit-identical with or without the enrichment plane.
    """
    key = asys.ipv4_prefix
    prefix = _PREFIX_STRINGS.get(key)
    if prefix is None:
        prefix = f"{key[0]}.{key[1]}.0.0/16"
        _PREFIX_STRINGS[key] = prefix
    return prefix


@dataclass(frozen=True, slots=True)
class IpAssignment:
    """One IP address lease: the address plus where it resolves to.

    Addresses are integer keys (:mod:`repro.sim.addresses`); :attr:`ip`
    and :attr:`ipv6` format them on access.  Slotted: a paper-scale
    population holds ~2.5 of these per peer (current + history), so the
    per-instance ``__dict__`` would cost hundreds of MiB at 10× scale.
    """

    addr4: int
    asn: int
    country_code: str
    addr6: int = NO_ADDRESS

    @property
    def ip(self) -> Optional[str]:
        return format_address(self.addr4)

    @property
    def ipv6(self) -> Optional[str]:
        return format_address(self.addr6)


@dataclass(slots=True)
class AddressProfile:
    """How a peer's public address evolves over time.

    Attributes
    ----------
    home_asn / home_country:
        The AS and country the peer physically resides in.
    change_interval_days:
        Mean days between address changes (DHCP lease rotation).  ``inf``
        means a static address.
    nomadic:
        When true, each address change may also move the peer to a
        different AS (and possibly country) — the VPN/Tor-operated profile.
    nomad_as_pool:
        The ASes a nomadic peer hops between.
    home_prefix:
        The originating CIDR prefix of the home AS (the /16 its addresses
        are allocated from) — the enrichment plane's prefix-granular
        blocking analyses key on this.
    """

    home_asn: int
    home_country: str
    change_interval_days: float
    nomadic: bool = False
    nomad_as_pool: Tuple[int, ...] = ()
    home_prefix: str = ""


class IpAssignmentManager:
    """Allocates addresses and drives per-peer address churn.

    The manager is deliberately independent of the peer model: it maps an
    opaque ``peer_id`` (the router hash) to its current
    :class:`IpAssignment` and history.  The population model asks it for
    initial assignments, and the network engine calls
    :meth:`maybe_rotate` once per simulated day per online peer.
    """

    #: Fraction of peers with a static address (never rotates).
    STATIC_FRACTION = 0.30

    #: Fraction of peers with a "nomadic" (multi-AS) profile: routers
    #: operated behind VPNs or Tor, which the paper identifies as the cause
    #: of peers spanning many ASes (8.4 % of peers appear in more than ten
    #: ASes, with extremes of 39 ASes / 25 countries).
    NOMADIC_FRACTION = 0.15

    #: Fraction of nomadic peers with an extreme profile (hundreds of
    #: addresses over the campaign — the paper's 460-peer group).
    EXTREME_NOMAD_FRACTION = 0.5

    def __init__(
        self,
        registry: GeoRegistry,
        rng: random.Random,
        retain_history: bool = True,
    ) -> None:
        self._registry = registry
        self._rng = rng
        self._profiles: Dict[bytes, AddressProfile] = {}
        self._current: Dict[bytes, IpAssignment] = {}
        #: Per-peer past leases.  ``retain_history=False`` (lean population
        #: builds) skips the appends entirely — no RNG draw depends on the
        #: history, so churn stays bit-identical while the retired
        #: ``IpAssignment`` objects become garbage immediately.
        self.retain_history = retain_history
        self._history: Dict[bytes, List[IpAssignment]] = {}
        self._host_counters: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _next_host_index(self, asn: int) -> int:
        index = self._host_counters.get(asn, 0)
        self._host_counters[asn] = index + 1
        return index

    def _allocate_in_as(self, asys: AutonomousSystem) -> IpAssignment:
        host_index = self._next_host_index(asys.asn)
        return IpAssignment(
            addr4=asys.ipv4_key(host_index),
            asn=asys.asn,
            country_code=asys.country_code,
            addr6=asys.ipv6_key(host_index) if asys.supports_ipv6 else NO_ADDRESS,
        )

    def register_peer(
        self,
        peer_id: bytes,
        country_code: Optional[str] = None,
        asn: Optional[int] = None,
    ) -> IpAssignment:
        """Create an address profile and the first assignment for a peer."""
        if peer_id in self._profiles:
            raise ValueError("peer already registered")
        if country_code is None:
            country_code = self._registry.sample_country(self._rng).code
        if asn is None:
            asys = self._registry.sample_as(country_code, self._rng)
        else:
            asys = self._registry.autonomous_system(asn)

        roll = self._rng.random()
        nomadic = False
        nomad_pool: Tuple[int, ...] = ()
        if roll < self.NOMADIC_FRACTION:
            nomadic = True
            extreme = self._rng.random() < self.EXTREME_NOMAD_FRACTION
            pool_size = self._rng.randint(11, 39) if extreme else self._rng.randint(2, 10)
            # VPN/Tor exits concentrate where the network itself is large,
            # so the hop-pool is sampled with the same country weights as
            # the population (keeping Figure 10's country shape intact).
            pool: List[int] = []
            seen_asns = set()
            while len(pool) < pool_size and len(seen_asns) < 400:
                country = self._registry.sample_country(self._rng)
                candidate = self._registry.sample_as(country.code, self._rng)
                seen_asns.add(candidate.asn)
                if candidate.asn not in pool:
                    pool.append(candidate.asn)
            nomad_pool = tuple(pool)
            if extreme:
                change_interval = self._rng.uniform(0.6, 1.5)
            else:
                change_interval = self._rng.uniform(1.5, 5.0)
        elif roll < self.NOMADIC_FRACTION + self.STATIC_FRACTION:
            change_interval = float("inf")
        else:
            # Dynamic residential connections: lease rotation every few
            # days to a few weeks (heavy-tailed).
            change_interval = self._rng.choice(self.DYNAMIC_INTERVALS)

        profile = AddressProfile(
            home_asn=asys.asn,
            home_country=asys.country_code,
            change_interval_days=change_interval,
            nomadic=nomadic,
            nomad_as_pool=nomad_pool,
            home_prefix=_home_prefix(asys),
        )
        self._profiles[peer_id] = profile
        assignment = self._allocate_in_as(asys)
        self._current[peer_id] = assignment
        if self.retain_history:
            self._history[peer_id] = [assignment]
        return assignment

    #: Dynamic-lease rotation intervals (days), heavy-tailed.
    DYNAMIC_INTERVALS: Tuple[float, ...] = (2.0, 4.0, 7.0, 10.0, 14.0, 21.0, 30.0)

    def register_peers_batch(
        self,
        peer_ids: Sequence[bytes],
        country_codes: Sequence[str],
        rng: np.random.Generator,
    ) -> List[IpAssignment]:
        """Register many peers with batched profile draws (bootstrap path).

        Marginal distributions match :meth:`register_peer`; the draws come
        from a NumPy generator in column order (home ASes, profile rolls,
        intervals, nomad pools) instead of one :mod:`random` stream in
        per-peer order.  Nomad hop-pools are assembled from one joint
        country × AS candidate batch with per-peer order-preserving
        de-duplication, so a pool may (rarely) end up slightly smaller than
        its drawn target size — the same truncation the per-peer sampler's
        attempt cap produced.
        """
        count = len(peer_ids)
        if len(country_codes) != count:
            raise ValueError("peer_ids and country_codes must align")
        for peer_id in peer_ids:
            if peer_id in self._profiles:
                raise ValueError("peer already registered")

        home_asns = self._registry.sample_as_batch(country_codes, rng)
        rolls = rng.random(count)
        nomadic = rolls < self.NOMADIC_FRACTION
        static = ~nomadic & (rolls < self.NOMADIC_FRACTION + self.STATIC_FRACTION)

        intervals = np.empty(count, dtype=np.float64)
        intervals[static] = np.inf
        dynamic = ~nomadic & ~static
        dynamic_count = int(np.count_nonzero(dynamic))
        if dynamic_count:
            choices = np.asarray(self.DYNAMIC_INTERVALS)
            intervals[dynamic] = choices[
                rng.integers(0, choices.size, size=dynamic_count)
            ]

        nomad_rows = np.nonzero(nomadic)[0]
        pools: Dict[int, Tuple[int, ...]] = {}
        if nomad_rows.size:
            extreme = rng.random(nomad_rows.size) < self.EXTREME_NOMAD_FRACTION
            pool_sizes = np.where(
                extreme,
                rng.integers(11, 40, size=nomad_rows.size),
                rng.integers(2, 11, size=nomad_rows.size),
            )
            intervals[nomad_rows] = np.where(
                extreme,
                0.6 + rng.random(nomad_rows.size) * (1.5 - 0.6),
                1.5 + rng.random(nomad_rows.size) * (5.0 - 1.5),
            )
            # Over-draw joint candidates in one batch, then de-duplicate per
            # peer preserving order.
            overdraw = pool_sizes * 2 + 4
            candidates = self._registry.sample_joint_as_batch(
                int(overdraw.sum()), rng
            )
            cursor = 0
            for position, row in enumerate(nomad_rows.tolist()):
                take = int(overdraw[position])
                window = candidates[cursor : cursor + take]
                cursor += take
                pool: List[int] = []
                seen = set()
                target = int(pool_sizes[position])
                for asn in window.tolist():
                    if asn not in seen:
                        seen.add(asn)
                        pool.append(asn)
                        if len(pool) == target:
                            break
                pools[row] = tuple(pool)

        assignments: List[IpAssignment] = []
        for i, peer_id in enumerate(peer_ids):
            asys = self._registry.autonomous_system(int(home_asns[i]))
            profile = AddressProfile(
                home_asn=asys.asn,
                home_country=asys.country_code,
                change_interval_days=float(intervals[i]),
                nomadic=bool(nomadic[i]),
                nomad_as_pool=pools.get(i, ()),
                home_prefix=_home_prefix(asys),
            )
            self._profiles[peer_id] = profile
            assignment = self._allocate_in_as(asys)
            self._current[peer_id] = assignment
            if self.retain_history:
                self._history[peer_id] = [assignment]
            assignments.append(assignment)
        return assignments

    def is_registered(self, peer_id: bytes) -> bool:
        return peer_id in self._profiles

    # ------------------------------------------------------------------ #
    # Rotation
    # ------------------------------------------------------------------ #
    def maybe_rotate(self, peer_id: bytes) -> IpAssignment:
        """Possibly rotate the peer's address (call once per simulated day).

        The probability of a change on a given day is ``1/interval``; for
        nomadic peers the new address may come from any AS in their pool.
        """
        profile = self._profiles[peer_id]
        current = self._current[peer_id]
        if profile.change_interval_days == float("inf"):
            return current
        if self._rng.random() >= 1.0 / profile.change_interval_days:
            return current

        if profile.nomadic and profile.nomad_as_pool:
            asn = self._rng.choice(profile.nomad_as_pool)
        else:
            asn = profile.home_asn
        assignment = self._allocate_in_as(self._registry.autonomous_system(asn))
        self._current[peer_id] = assignment
        if self.retain_history:
            self._history[peer_id].append(assignment)
        return assignment

    def maybe_rotate_many(
        self, peer_ids: Sequence[bytes]
    ) -> List[Tuple[int, IpAssignment]]:
        """Apply :meth:`maybe_rotate` to many peers in order, cheaply.

        Returns ``(position, new_assignment)`` for the peers whose address
        actually changed.  The RNG draw sequence is identical to calling
        :meth:`maybe_rotate` once per peer in the given order, so columnar
        and row-oriented day materialisation produce the same churn; the
        batch form just hoists the attribute/dict lookups out of the
        per-peer hot loop (~2.7M calls per paper-scale campaign).
        """
        rng = self._rng
        rng_random = rng.random
        profiles = self._profiles
        current = self._current
        history = self._history if self.retain_history else None
        autonomous_system = self._registry.autonomous_system
        changed: List[Tuple[int, IpAssignment]] = []
        for position, peer_id in enumerate(peer_ids):
            profile = profiles[peer_id]
            interval = profile.change_interval_days
            if interval == float("inf"):
                continue
            if rng_random() >= 1.0 / interval:
                continue
            if profile.nomadic and profile.nomad_as_pool:
                asn = rng.choice(profile.nomad_as_pool)
            else:
                asn = profile.home_asn
            assignment = self._allocate_in_as(autonomous_system(asn))
            current[peer_id] = assignment
            if history is not None:
                history[peer_id].append(assignment)
            changed.append((position, assignment))
        return changed

    def force_rotate(self, peer_id: bytes) -> IpAssignment:
        """Unconditionally rotate the peer's address within its home AS."""
        profile = self._profiles[peer_id]
        assignment = self._allocate_in_as(
            self._registry.autonomous_system(profile.home_asn)
        )
        self._current[peer_id] = assignment
        if self.retain_history:
            self._history[peer_id].append(assignment)
        return assignment

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def current(self, peer_id: bytes) -> IpAssignment:
        return self._current[peer_id]

    def profile(self, peer_id: bytes) -> AddressProfile:
        return self._profiles[peer_id]

    def _require_history(self, peer_id: bytes) -> List[IpAssignment]:
        if not self.retain_history:
            raise RuntimeError(
                "address history is not retained by a lean "
                "(retain_history=False) assignment manager"
            )
        return self._history[peer_id]

    def history(self, peer_id: bytes) -> List[IpAssignment]:
        return list(self._require_history(peer_id))

    def address_count(self, peer_id: bytes) -> int:
        """Distinct IPv4 addresses the peer has held so far."""
        return len({a.addr4 for a in self._require_history(peer_id)})

    def asn_count(self, peer_id: bytes) -> int:
        return len({a.asn for a in self._require_history(peer_id)})

    def country_count(self, peer_id: bytes) -> int:
        return len({a.country_code for a in self._require_history(peer_id)})

    def all_peer_ids(self) -> List[bytes]:
        return list(self._profiles.keys())
