"""Message-level I2P network engine.

This engine wires together the full substrate — identities, RouterInfos,
netDb stores, floodfill flooding, reseed bootstrap, DLM exploration, and
tunnel building — at the level of individual protocol interactions.  Unit
and integration tests use it to validate that the four peer-discovery
mechanisms enumerated in Section 4.2 of the paper actually produce the
netDb contents the statistical model (:mod:`repro.sim.observation`)
summarises at paper scale.

Two message planes drive convergence:

* the **legacy plane** delivers every DatabaseStoreMessage one Python
  call at a time (`_publish_all_legacy` / `_deliver_store`), exactly as
  the original engine did;
* the **batched plane** (default) computes closest-floodfill targets for
  all publishers of a round at once — NumPy argpartition over packed
  XOR distances against the memoised daily routing keys — then walks the
  resulting flood cascades and coalesces the per-floodfill deliveries
  into one store-apply pass per round.

The two planes produce bit-identical netDb end states at a fixed seed
(store contents, known-floodfill sets, reseed servers, message counts;
see ``tests/sim/test_network_equivalence.py``): within one round the
floodfill neighbour tables are frozen, non-floodfill publishers never
mutate anyone's candidate sets, and floodfill publishers are replayed
sequentially in their legacy order, so reordering the remaining work is
observationally equivalent.  Columnar router state lives in
:class:`repro.sim.directory.RouterDirectory`.

Lookups (Section 2.1.2's iterative search) run one walk on both planes,
:meth:`I2PNetwork._lookup_walk`, behind ``lookup_routerinfo``, its
fault-aware variant and ``lookup_leaseset``.  It packs the key's routing
key once (the directory's row for a registered hash; any other key is
packed alone and never registered), starts from the requester's cached
floodfill view, and at each step queries the closest unqueried
candidate, ranked on the packed keys by
:func:`repro.netdb.kademlia.select_closest_row`.  A floodfill that lacks
the entry answers with the three floodfills it knows closest to the key,
minus the queried ones and the requester (the selection
:meth:`FloodfillRouterState._closer_reply` makes over hashes), and the
live ones join the candidates.  The walk builds no message objects;
``messages_delivered`` counts one per query that reaches a floodfill.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..netdb.floodfill import (
    FLOOD_REDUNDANCY,
    LOOKUP_CLOSER_COUNT,
    FloodfillRouterState,
)
from ..netdb.identity import RouterIdentity
from ..netdb.kademlia import (
    pack_keys,
    select_closest_row,
    select_closest_segmented,
    select_closest_shared,
)
from ..netdb.leaseset import LEASE_DURATION, Destination, Lease, LeaseSet
from ..netdb.messages import (
    DatabaseLookupMessage,
    DatabaseStoreMessage,
    LookupType,
)
from ..netdb.routerinfo import (
    BandwidthTier,
    CapacityFlags,
    RouterAddress,
    RouterInfo,
    TransportStyle,
)
from ..netdb.routing_key import date_string_for_time, routing_key, select_closest
from ..netdb.store import NetDbStore
from ..transport.ports import PortRegistry
from .clock import SECONDS_PER_HOUR, SimulationClock
from .directory import RouterDirectory
from .faults import (
    CHANNEL_EXPLORE,
    CHANNEL_LOOKUP,
    CHANNEL_STORE,
    FaultInjector,
    FaultMetrics,
    FaultPlan,
)
from .reseed import DEFAULT_RESEED_SERVERS, ReseedServer, bootstrap
from .tunnels import TunnelBuilder, TunnelDirection

__all__ = ["SimulatedRouter", "I2PNetwork"]

#: Reseed-server RouterInfos older than this are refreshed (full re-sync)
#: before serving a new bootstrap, so late joiners never receive infos
#: that would expire on the next store-expiry pass.  Keyed to half the
#: *floodfill* RouterInfo expiry (1h) — the tightest store expiry a
#: joining router can have.
RESEED_REFRESH_SECONDS = 0.5 * SECONDS_PER_HOUR


@dataclass
class SimulatedRouter:
    """A fully simulated router participating in the message-level network."""

    identity: RouterIdentity
    ip: str
    port: int
    bandwidth_tier: BandwidthTier
    floodfill: bool
    hidden: bool = False
    store: NetDbStore = field(default_factory=NetDbStore)
    floodfill_state: Optional[FloodfillRouterState] = None
    known_floodfills: Set[bytes] = field(default_factory=set)
    participating_tunnels: int = 0
    #: Hidden services hosted by this router: destination hash -> Destination.
    hosted_destinations: Dict[bytes, Destination] = field(default_factory=dict)
    #: Row of this router in the owning network's RouterDirectory.
    dir_index: int = field(default=-1, repr=False, compare=False)
    #: (signature, RouterInfo) memo for :meth:`routerinfo`.
    _info_cache: Optional[Tuple[tuple, RouterInfo]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def hash(self) -> bytes:
        return self.identity.hash

    def routerinfo(self, published_at: float) -> RouterInfo:
        """The RouterInfo this router publishes right now.

        Identical consecutive publications differ only in
        ``published_at``, so the previous info is memoised and re-stamped
        instead of rebuilding the capacity/address objects every round.
        """
        signature = (self.bandwidth_tier, self.floodfill, self.hidden, self.ip, self.port)
        cached = self._info_cache
        if cached is not None and cached[0] == signature:
            info = cached[1]
            if info.published_at != published_at:
                info = info.republished(published_at)
                self._info_cache = (signature, info)
            return info
        capacity = CapacityFlags(
            tiers=(self.bandwidth_tier,),
            floodfill=self.floodfill,
            reachable=not self.hidden,
            unreachable=self.hidden,
        )
        addresses: Tuple[RouterAddress, ...]
        if self.hidden:
            addresses = ()
        else:
            addresses = (
                RouterAddress(
                    style=TransportStyle.NTCP, host=self.ip, port=self.port
                ),
            )
        info = RouterInfo(
            identity=self.identity,
            addresses=addresses,
            capacity=capacity,
            published_at=published_at,
        )
        self._info_cache = (signature, info)
        return info

    def learn(self, info: RouterInfo) -> bool:
        """Store a RouterInfo and track floodfills separately."""
        changed = self.store.store_routerinfo(info)
        if info.is_floodfill:
            self.known_floodfills.add(info.hash)
            if self.floodfill_state is not None:
                self.floodfill_state.learn_floodfill(info.hash)
        return changed

    def known_peer_hashes(self) -> Set[bytes]:
        """Set-like view of all known peer hashes.

        Returns the store's live key view (supports all read-only set
        operations) instead of materialising a fresh ``set`` per call.
        """
        return self.store.router_hashes_view()


@dataclass
class _FloodfillView:
    """A router's cached view of the floodfills it can publish to."""

    size: int  # len(known_floodfills) at build time (invalidation key)
    epoch: int  # topology epoch at build time (invalidation key)
    alive_hashes: List[bytes]  # known ∩ alive, sorted (canonical order)
    alive_cols: np.ndarray  # directory indices, same order
    is_full: bool  # candidate set == the network's active floodfill set


class _ReplayCache:
    """Memoised write structure of one steady-state publish round.

    In a converged network every publish round delivers the exact same
    message pattern: selections depend only on the routing-key date and
    the (frozen) candidate sets, and flooding depends only on
    within-round first-receipt — so the per-store write sequences repeat
    byte for byte, with only the publication timestamp changing.  The
    cache records that structure once, and
    :meth:`I2PNetwork._publish_all_batched` re-applies it with the
    round's re-stamped RouterInfos whenever the guards prove nothing
    structural moved since the build.  Every guard quantity is monotone
    (sets only grow, epochs/versions only increment), so sum equality
    implies component-wise equality.
    """

    __slots__ = (
        "epoch",  # network topology epoch at build time
        "key_date",  # routing-key UTC date the selections were ranked under
        "sizes_sum",  # sum of len(known_floodfills) over all routers
        "versions_sum",  # sum of floodfill neighbours_version
        "order_sum",  # sum of store order_epoch (no removals since build)
        "ff_count",  # number of floodfill routers
        "delivered",  # DSMs delivered by the recorded round
        "pub_cols",  # publisher directory indices (np.int64)
        "entries",  # per store: (store, [(pub_hash, col)...], n_writes, n_uniq)
    )


class I2PNetwork:
    """A message-level I2P network."""

    def __init__(
        self,
        seed: int = 0,
        reseed_server_count: int = 3,
        batched: bool = True,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.clock = SimulationClock()
        self.rng = random.Random(seed)
        self.routers: Dict[bytes, SimulatedRouter] = {}
        self.ports = PortRegistry()
        self.tunnel_builder = TunnelBuilder(rng=random.Random(seed + 1))
        self.reseed_servers: List[ReseedServer] = [
            ReseedServer(hostname=name)
            for name in DEFAULT_RESEED_SERVERS[:reseed_server_count]
        ]
        self._host_counter = 0
        self._last_reseed_sync = 0.0
        self.messages_delivered = 0
        #: Whether publish/explore use the batched message plane.  The
        #: legacy per-message loop stays available (``batched=False``) as
        #: the equivalence oracle.
        self.batched = batched
        self.directory = RouterDirectory()
        #: Bumped whenever the router population changes; every
        #: topology-dependent cache below keys on it.
        self._topology_epoch = 0
        self._ff_views: Dict[bytes, _FloodfillView] = {}
        self._flood_cols: Dict[bytes, Tuple[Tuple[int, int], np.ndarray, bool]] = {}
        self._explore_excludes: Dict[bytes, Tuple[int, int, Set[bytes]]] = {}
        self._active_ff_cache: Optional[Tuple[int, List[bytes], np.ndarray, Set[bytes]]] = None
        self._col_routers: Optional[Tuple[int, Dict[int, SimulatedRouter]]] = None
        self._replay: Optional[_ReplayCache] = None
        #: Cache-churn counters; ``tests/sim/test_network_batched.py``
        #: asserts these stay flat across steady-state rounds.
        #: ``replay_rounds`` counts publish rounds served entirely from
        #: the memoised write structure.
        self.plane_stats: Dict[str, int] = {
            "ff_view_rebuilds": 0,
            "flood_table_rebuilds": 0,
            "explore_exclude_rebuilds": 0,
            "replay_rounds": 0,
        }
        #: Fault plane (see :mod:`repro.sim.faults`).  ``faults`` is None
        #: unless a non-noop plan is attached — every fault check in the
        #: hot paths hides behind that None test, so the fault-free plane
        #: (including the replay fast path) is byte-identical to a network
        #: without the feature.
        self.fault_plan: Optional[FaultPlan] = None
        self.faults: Optional[FaultInjector] = None
        self.fault_metrics = FaultMetrics()
        if fault_plan is not None:
            self.set_fault_plan(fault_plan)

    def set_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Attach (or detach, with ``None``) a fault-injection plan.

        A no-op plan normalises to no injector at all.  Attaching or
        detaching clears the replay fast path — its memoised write
        structure was recorded under different failure assumptions — and
        resets crash flags and degradation metrics.
        """
        self.fault_plan = plan
        if plan is None or plan.is_noop:
            self.faults = None
        else:
            self.faults = FaultInjector(plan)
        self.fault_metrics = FaultMetrics()
        self._replay = None
        for router in self.routers.values():
            if router.floodfill_state is not None:
                router.floodfill_state.crashed = False

    # ------------------------------------------------------------------ #
    # Topology management
    # ------------------------------------------------------------------ #
    def _allocate_ip(self) -> str:
        self._host_counter += 1
        index = self._host_counter
        return f"10.{(index >> 16) & 0xFF}.{(index >> 8) & 0xFF}.{index & 0xFF}"

    def add_router(
        self,
        floodfill: bool = False,
        bandwidth_tier: BandwidthTier = BandwidthTier.L,
        hidden: bool = False,
        do_bootstrap: bool = True,
    ) -> SimulatedRouter:
        """Create a router, optionally bootstrapping it from reseed servers."""
        router = self._create_router(
            floodfill=floodfill,
            bandwidth_tier=bandwidth_tier,
            hidden=hidden,
            do_bootstrap=do_bootstrap,
        )
        # Reseed servers learn about new public routers over time —
        # incrementally: only the new router's RouterInfo is pushed, instead
        # of rebuilding every public RouterInfo on every add (O(n²)).
        if not hidden:
            self._push_to_reseed_servers(router)
        return router

    def batch_add_routers(
        self,
        count: int,
        floodfill: bool = False,
        bandwidth_tier: BandwidthTier = BandwidthTier.L,
        hidden: bool = False,
        do_bootstrap: bool = True,
    ) -> List[SimulatedRouter]:
        """Create ``count`` routers with one reseed sync pass at the end.

        The batch members bootstrap against the pre-batch network — their
        reseed samples do not include each other, so seed the network's
        floodfills (and anything else the batch must discover immediately)
        *before* batching, and run convergence rounds afterwards.  Use
        this for tests/examples that stand up networks of hundreds of
        routers.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        routers = [
            self._create_router(
                floodfill=floodfill,
                bandwidth_tier=bandwidth_tier,
                hidden=hidden,
                do_bootstrap=do_bootstrap,
            )
            for _ in range(count)
        ]
        for router in routers:
            if not router.hidden:
                self._push_to_reseed_servers(router)
        return routers

    def _create_router(
        self,
        floodfill: bool,
        bandwidth_tier: BandwidthTier,
        hidden: bool,
        do_bootstrap: bool,
    ) -> SimulatedRouter:
        identity = RouterIdentity.generate(self.rng)
        ip = self._allocate_ip()
        port = self.ports.bind(ip, identity.hash, rng=self.rng)
        router = SimulatedRouter(
            identity=identity,
            ip=ip,
            port=port,
            bandwidth_tier=bandwidth_tier,
            floodfill=floodfill,
            hidden=hidden,
            store=NetDbStore(floodfill=floodfill),
        )
        if floodfill:
            router.floodfill_state = FloodfillRouterState(
                router_hash=identity.hash, store=router.store
            )
        self.routers[identity.hash] = router
        router.dir_index = self.directory.register(identity.hash)
        self.directory.set_ip(router.dir_index, self._host_counter)
        self._topology_epoch += 1

        if do_bootstrap:
            # Incremental pushes freeze each info's published_at at add
            # time; refresh the whole reseed view when it has gone stale so
            # bootstrapped infos survive the next expiry pass.
            if self.clock.now - self._last_reseed_sync > RESEED_REFRESH_SECONDS:
                self._sync_reseed_servers()
            if self.faults is not None:
                self._apply_reseed_outages(self.clock.now)
            result = bootstrap(ip, self.reseed_servers, rng=self.rng)
            if self.faults is not None:
                self.fault_metrics.note_bootstrap(result.succeeded)
            for info in result.routerinfos:
                router.learn(info)
        return router

    def remove_router(self, router_hash: bytes) -> bool:
        router = self.routers.pop(router_hash, None)
        if router is None:
            return False
        self.ports.release(router.ip, router.port)
        for server in self.reseed_servers:
            server.remove_known(router_hash)
        self._topology_epoch += 1
        return True

    def _push_to_reseed_servers(self, router: SimulatedRouter) -> None:
        info = router.routerinfo(self.clock.now)
        for server in self.reseed_servers:
            server.add_known(info)

    def _sync_reseed_servers(self) -> None:
        """Full rebuild of every reseed server's view (rarely needed; adds
        use the incremental :meth:`_push_to_reseed_servers` path)."""
        public_infos = [
            router.routerinfo(self.clock.now)
            for router in self.routers.values()
            if not router.hidden
        ]
        for server in self.reseed_servers:
            server.update_known(public_infos)
        self._last_reseed_sync = self.clock.now

    # ------------------------------------------------------------------ #
    # netDb interactions
    # ------------------------------------------------------------------ #
    def floodfill_hashes(self) -> List[bytes]:
        return [h for h, r in self.routers.items() if r.floodfill]

    def publish_all(self) -> int:
        """Every router publishes its RouterInfo to its closest floodfills.

        Returns the number of DatabaseStoreMessages delivered (including
        flood propagation).  Dispatches to the batched message plane
        unless the network was built with ``batched=False``; an active
        fault plan routes both planes through the fault-aware path.
        """
        if self.faults is not None:
            return self._publish_all_faulty()
        if self.batched:
            return self._publish_all_batched()
        return self._publish_all_legacy()

    def _publish_all_legacy(self) -> int:
        """Reference per-message publish loop (the equivalence oracle)."""
        delivered = 0
        floodfills = self.floodfill_hashes()
        for router in list(self.routers.values()):
            info = router.routerinfo(self.clock.now)
            router.learn(info)
            if not floodfills:
                continue
            known_ffs = [h for h in router.known_floodfills if h in self.routers]
            candidates = known_ffs if known_ffs else floodfills
            target_key = routing_key(info.hash, self.clock.now)
            targets = select_closest(
                target_key, candidates, FLOOD_REDUNDANCY, self.clock.now
            )
            for target_hash in targets:
                delivered += self._deliver_store(target_hash, router.hash, info)
        self.messages_delivered += delivered
        return delivered

    # ------------------------------------------------------------------ #
    # Fault-aware message plane (active only while a plan is attached)
    # ------------------------------------------------------------------ #
    def _apply_crash_flags(self, now: float) -> Set[bytes]:
        """Refresh every floodfill's crash flag; returns the crashed set."""
        faults = self.faults
        assert faults is not None
        crashed: Set[bytes] = set()
        for router_hash, router in self.routers.items():
            state = router.floodfill_state
            if state is None:
                continue
            is_crashed = faults.crashed(router_hash, now)
            state.crashed = is_crashed
            if is_crashed:
                crashed.add(router_hash)
        return crashed

    def _apply_reseed_outages(self, now: float) -> None:
        """Refresh reseed ``blocked`` flags from the plan's outage windows."""
        faults = self.faults
        assert faults is not None
        for server in self.reseed_servers:
            server.blocked = faults.reseed_blocked(server.hostname, now)

    def _publish_all_faulty(self) -> int:
        """Publish round under an active fault plan, on either plane.

        Semantics extend the fault-free round with robustness: a
        publisher ranks ``FLOOD_REDUNDANCY + store_retry_budget`` closest
        candidates and walks them in order until ``FLOOD_REDUNDANCY``
        stores are acknowledged — a delivery to a crashed floodfill or a
        dropped message consumes an attempt (the next-closest candidate
        is the retry), and each retry beyond the first three attempts
        adds exponential-backoff latency to the round's modelled retry
        latency.  Every fault decision is a stateless seeded coin, so the
        batched (``queue_mode``: writes coalesced per store, applied once
        at round end — order-equivalent by PR 6's cascade argument) and
        legacy (immediate writes) planes fail identically and produce
        identical degradation curves.  The round closes by recording a
        :class:`repro.sim.faults.RoundSample`.
        """
        faults = self.faults
        assert faults is not None
        plan = faults.plan
        now = self.clock.now
        queue_mode = self.batched
        crashed = self._apply_crash_flags(now)
        routers = list(self.routers.values())
        floodfills = self.floodfill_hashes()
        queues: Optional[Dict[int, Tuple[NetDbStore, List[RouterInfo]]]] = (
            {} if queue_mode else None
        )
        delivered = 0
        publishers = 0
        publishers_acked = 0
        store_attempts = 0
        store_acks = 0
        store_drops = 0
        store_retries = 0
        retry_latency = 0.0
        max_attempts = FLOOD_REDUNDANCY + plan.store_retry_budget

        for router in routers:
            if router.hash in crashed:
                continue  # a crashed floodfill is offline: no publish
            info = router.routerinfo(now)
            if queue_mode:
                queue = queues.get(router.dir_index)
                if queue is None:
                    queues[router.dir_index] = (router.store, [info])
                else:
                    queue[1].append(info)
                if router.floodfill:
                    router.known_floodfills.add(router.hash)
            else:
                router.learn(info)
            if not floodfills:
                continue
            publishers += 1
            known_ffs = [h for h in router.known_floodfills if h in self.routers]
            candidates = known_ffs if known_ffs else floodfills
            target_key = routing_key(info.hash, now)
            ranked = select_closest(target_key, candidates, max_attempts, now)
            required = min(FLOOD_REDUNDANCY, len(ranked))
            acks = 0
            attempts = 0
            received: Set[bytes] = set()
            for target_hash in ranked:
                if acks >= FLOOD_REDUNDANCY:
                    break
                attempts += 1
                acked, n_delivered, n_dropped = self._attempt_store_faulty(
                    router, info, target_hash, now, queues, received
                )
                delivered += n_delivered
                store_drops += n_dropped
                if acked:
                    acks += 1
            store_attempts += attempts
            store_acks += acks
            retries = max(0, attempts - FLOOD_REDUNDANCY)
            if retries:
                store_retries += retries
                for k in range(1, retries + 1):
                    retry_latency += plan.backoff_base_seconds * (2.0 ** (k - 1))
            if required and acks >= required:
                publishers_acked += 1

        if queue_mode:
            for store, queued in queues.values():
                store.store_routerinfos_batch(queued)

        self.messages_delivered += delivered

        live_ffs = [h for h in floodfills if h not in crashed]
        coverage = 0.0
        if live_ffs and routers:
            live_set = set(live_ffs)
            live_count = len(live_set)
            coverage = sum(
                len(live_set.intersection(router.known_floodfills)) / live_count
                for router in routers
            ) / len(routers)
        self.fault_metrics.record_publish_round(
            sim_time=now,
            publishers=publishers,
            publishers_acked=publishers_acked,
            store_attempts=store_attempts,
            store_acks=store_acks,
            store_drops=store_drops,
            store_retries=store_retries,
            retry_latency_seconds=retry_latency,
            crashed_floodfills=len(crashed),
            netdb_coverage=coverage,
        )
        return delivered

    def _attempt_store_faulty(
        self,
        publisher: SimulatedRouter,
        info: RouterInfo,
        target_hash: bytes,
        now: float,
        queues: Optional[Dict[int, Tuple[NetDbStore, List[RouterInfo]]]],
        received: Set[bytes],
    ) -> Tuple[bool, int, int]:
        """One direct store attempt (plus flood propagation) under faults.

        Returns ``(acked, messages_delivered, drops)``.  ``queues`` is the
        batched plane's per-store delivery queues (None on the legacy
        plane, which writes immediately); ``received`` tracks targets that
        already hold this round's copy of ``info``, reproducing the
        immediate-write freshness decision for queued writes.
        """
        faults = self.faults
        target = self.routers.get(target_hash)
        if target is None or target.floodfill_state is None:
            return False, 0, 0
        pub_hash = info.identity._hash
        if target is publisher:
            # Local write: can't be dropped, is always stale (the
            # self-learn this round already holds today's info), never
            # floods — but it is a live acknowledgement.
            if queues is None:
                message = DatabaseStoreMessage(
                    from_hash=pub_hash, entry=info, reply_token=1
                )
                target.floodfill_state.handle_store(message, now)
            else:
                queue = queues.get(target.dir_index)
                if queue is None:
                    queues[target.dir_index] = (target.store, [info])
                else:
                    queue[1].append(info)
            received.add(target_hash)
            return True, 1, 0
        if faults.crashed(target_hash, now):
            return False, 0, 0
        if faults.message_dropped(publisher.hash, target_hash, now, CHANNEL_STORE):
            target.store.stats.stores_dropped += 1
            return False, 0, 1
        delivered = 1
        drops = 0
        state = target.floodfill_state
        if queues is None:
            message = DatabaseStoreMessage(
                from_hash=publisher.hash, entry=info, reply_token=1
            )
            result = state.handle_store(message, now)
            flood_targets: Sequence[bytes] = result.flooded_to
        else:
            existing = target.store._routerinfos.get(pub_hash)
            fresh = target_hash not in received and (
                existing is None or existing.published_at < now
            )
            queue = queues.get(target.dir_index)
            if queue is None:
                queues[target.dir_index] = (target.store, [info])
            else:
                queue[1].append(info)
            flood_targets = state.flood_targets(pub_hash, now) if fresh else ()
        if info.is_floodfill:
            target.known_floodfills.add(pub_hash)
        received.add(target_hash)
        for neighbour_hash in flood_targets:
            neighbour = self.routers.get(neighbour_hash)
            if neighbour is None or neighbour.floodfill_state is None:
                continue
            if faults.crashed(neighbour_hash, now):
                continue
            if faults.message_dropped(
                target_hash, neighbour_hash, now, CHANNEL_STORE
            ):
                neighbour.store.stats.stores_dropped += 1
                drops += 1
                continue
            delivered += 1
            if queues is None:
                flood_message = DatabaseStoreMessage(
                    from_hash=target_hash, entry=info, reply_token=0
                )
                neighbour.floodfill_state.handle_store(flood_message, now)
            else:
                queue = queues.get(neighbour.dir_index)
                if queue is None:
                    queues[neighbour.dir_index] = (neighbour.store, [info])
                else:
                    queue[1].append(info)
            if info.is_floodfill:
                neighbour.known_floodfills.add(pub_hash)
            received.add(neighbour_hash)
        return True, delivered, drops

    # ------------------------------------------------------------------ #
    # Batched message plane
    # ------------------------------------------------------------------ #
    def _active_floodfills(self) -> Tuple[List[bytes], np.ndarray, Set[bytes]]:
        """(hashes, directory cols, hash set) of live floodfills, per epoch."""
        cached = self._active_ff_cache
        if cached is not None and cached[0] == self._topology_epoch:
            return cached[1], cached[2], cached[3]
        hashes = self.floodfill_hashes()
        cols = self.directory.indices_of(hashes)
        self._active_ff_cache = (self._topology_epoch, hashes, cols, set(hashes))
        return hashes, cols, self._active_ff_cache[3]

    def _col_router_map(self) -> Dict[int, SimulatedRouter]:
        """Live routers keyed by directory column, cached per epoch."""
        cached = self._col_routers
        if cached is not None and cached[0] == self._topology_epoch:
            return cached[1]
        mapping = {router.dir_index: router for router in self.routers.values()}
        self._col_routers = (self._topology_epoch, mapping)
        return mapping

    def _target_entry(
        self, t_col: int, tcache: Dict[int, tuple]
    ) -> tuple:
        """Per-round cache entry for a flood target column.

        ``(router, store-dict get, flood candidate cols, full_minus_self)``
        with ``(None, None, None, False)`` for dead or non-floodfill
        columns.  Valid for one publish round: the topology and every
        floodfill's neighbour set are frozen while publishing.
        """
        target = self._col_router_map().get(t_col)
        if target is None or target.floodfill_state is None:
            entry = (None, None, None, False)
        else:
            cols, full = self._flood_candidate_cols(
                target.floodfill_state, target.hash
            )
            entry = (target, target.store._routerinfos.get, cols, full)
        tcache[t_col] = entry
        return entry

    def _floodfill_view(self, router: SimulatedRouter) -> _FloodfillView:
        """The router's current publish-candidate view (cached).

        Invalidation keys on the known-floodfill set size and the
        topology epoch: during simulation the set only ever grows (size
        change) and liveness only changes with the topology (epoch).
        """
        size = len(router.known_floodfills)
        view = self._ff_views.get(router.hash)
        if view is not None and view.size == size and view.epoch == self._topology_epoch:
            return view
        self.plane_stats["ff_view_rebuilds"] += 1
        _, _, active_set = self._active_floodfills()
        routers = self.routers
        # Sorted so exploration sampling sees a canonical order — the
        # legacy plane sorts its freshly built candidate list the same way.
        alive = sorted(h for h in router.known_floodfills if h in routers)
        cols = self.directory.indices_of(alive)
        n_active = len(active_set.intersection(alive))
        is_full = n_active == len(active_set) and len(alive) == n_active
        view = _FloodfillView(
            size=size,
            epoch=self._topology_epoch,
            alive_hashes=alive,
            alive_cols=cols,
            is_full=is_full,
        )
        self._ff_views[router.hash] = view
        return view

    def _flood_candidate_cols(
        self, state: FloodfillRouterState, t_hash: bytes
    ) -> Tuple[np.ndarray, bool]:
        """Flood-neighbour candidates of a floodfill, as directory indices.

        Returns ``(cols, full_minus_self)`` where ``full_minus_self`` means
        the candidate set equals the network's active floodfill set minus
        the floodfill itself — the converged steady state, in which a flood
        row can be assembled from the publisher's top-(redundancy+1)
        selection over the active set instead of ranking per source.
        """
        cached = self._flood_cols.get(t_hash)
        key = (state.neighbours_version, self._topology_epoch)
        if cached is not None and cached[0] == key:
            return cached[1], cached[2]
        self.plane_stats["flood_table_rebuilds"] += 1
        known = list(state.iter_known_floodfills())
        cols = self.directory.indices_of(known)
        _, _, active_set = self._active_floodfills()
        # ``known`` never contains the floodfill's own hash, so subset +
        # size |active| - 1 pins the set to exactly active - {self}.
        full_minus_self = len(known) == len(active_set) - 1 and active_set.issuperset(
            known
        )
        self._flood_cols[t_hash] = (key, cols, full_minus_self)
        return cols, full_minus_self

    def _cascade(
        self,
        info: RouterInfo,
        target_cols: Sequence[int],
        flood_row_for: Dict[int, Sequence[int]],
        col_routers: Dict[int, SimulatedRouter],
        queues: Dict[int, Tuple[NetDbStore, List[RouterInfo]]],
    ) -> int:
        """Walk one publisher's direct deliveries plus flood propagation.

        Store writes are queued (applied once per round).  Whether a
        direct delivery floods is fully encoded in ``flood_row_for``: the
        flood-row passes compute a row exactly for the valid, non-self
        targets whose stored copy is older than this publication — so key
        presence there, combined with the publisher's own first-receipt
        set, reproduces the legacy immediate-write flood decision without
        touching the stores again.
        """
        delivered = 0
        col_routers_get = col_routers.get
        queues_get = queues.get
        flood_rows_get = flood_row_for.get
        info_is_ff = info.is_floodfill
        pub_hash = info.identity._hash
        received: Set[int] = set()
        for t_col in target_cols:
            if t_col < 0:
                continue
            target = col_routers_get(t_col)
            if target is None or target.floodfill_state is None:
                continue
            delivered += 1
            queue = queues_get(t_col)
            if queue is None:
                queues[t_col] = (target.store, [info])
            else:
                queue[1].append(info)
            if info_is_ff:
                target.known_floodfills.add(pub_hash)
            if t_col in received:
                continue
            received.add(t_col)
            flood_row = flood_rows_get(t_col)
            if flood_row is None:
                continue
            for n_col in flood_row:
                if n_col < 0:
                    continue
                neighbour = col_routers_get(n_col)
                if neighbour is None or neighbour.floodfill_state is None:
                    continue
                delivered += 1
                queue = queues_get(n_col)
                if queue is None:
                    queues[n_col] = (neighbour.store, [info])
                else:
                    queue[1].append(info)
                received.add(n_col)
                if info_is_ff:
                    neighbour.known_floodfills.add(pub_hash)
        return delivered

    def _publish_all_batched(self) -> int:
        """Vectorised equivalent of :meth:`_publish_all_legacy`.

        Phases:

        1. refreshed RouterInfos are built and the set half of every
           self-learn applied (sets are order-insensitive);
        2. closest-floodfill selections are precomputed in batch —
           exactly for the frozen non-floodfill candidate views,
           optimistically for floodfill publishers (verified per turn);
        3. flood-neighbour rows for the frozen publishers are grouped per
           flood source and ranked in batch;
        4. the cascade walk runs in legacy publisher order, queueing
           every store write (self-learns included) per target store;
        5. queues are applied in one pass per store — each store's write
           sequence, and hence its dict insertion order, is byte-exact
           against the legacy plane, which exploration replies depend on.
        """
        now = self.clock.now
        routers = list(self.routers.values())

        # Replay guard.  Every quantity is monotone, so the sums pin the
        # exact component state the cache was built against; ``fresh``
        # guarantees each first write per (store, hash) pair refreshes
        # and each duplicate is rejected stale — the same accounting the
        # recorded round produced.
        sizes_sum = 0
        versions_sum = 0
        order_sum = 0
        ff_count = 0
        max_published = float("-inf")
        for router in routers:
            sizes_sum += len(router.known_floodfills)
            store = router.store
            order_sum += store.order_epoch
            if store._max_published > max_published:
                max_published = store._max_published
            if router.floodfill:
                ff_count += 1
                state = router.floodfill_state
                if state is not None:
                    versions_sum += state.neighbours_version
        fresh = now > max_published
        replay = self._replay
        if (
            replay is not None
            and fresh
            and replay.epoch == self._topology_epoch
            and replay.sizes_sum == sizes_sum
            and replay.versions_sum == versions_sum
            and replay.order_sum == order_sum
            and replay.ff_count == ff_count
            and replay.key_date == date_string_for_time(now)
        ):
            return self._publish_replay(replay, routers, now)

        infos: List[RouterInfo] = []
        for router in routers:
            info = router.routerinfo(now)
            infos.append(info)
            # The set half of the legacy self-learn happens up front (set
            # membership is order-insensitive); the store write itself is
            # queued at the publisher's turn below so every store's
            # *insertion order* — which exploration replies scan —
            # matches the legacy plane byte for byte.
            if router.floodfill:
                router.known_floodfills.add(router.identity.hash)
        ff_hashes, ff_cols, _ = self._active_floodfills()
        directory = self.directory
        hashes = directory.hashes
        queues: Dict[int, Tuple[NetDbStore, List[RouterInfo]]] = {}
        if not ff_hashes:
            for router, info in zip(routers, infos):
                queues[router.dir_index] = (router.store, [info])
            for store, queued in queues.values():
                store.store_routerinfos_batch(queued)
            return 0
        key_words = directory.key_words(now)
        pub_cols = np.array([r.dir_index for r in routers], dtype=np.int64)
        directory.note_published(pub_cols, now)

        delivered = 0
        ranked = FLOOD_REDUNDANCY + 1

        # Selection snapshot.  Non-floodfill candidate views are frozen
        # for the whole round (only floodfill targets gain set members
        # mid-round), so their selections are exact.  Floodfill
        # publishers' views can grow before their turn, so theirs are
        # optimistic: the sequential loop below verifies the set size and
        # recomputes on growth (a cold-start case; converged rounds verify
        # clean).  One extra rank (``ranked`` = redundancy + 1) is
        # requested for full-view rows so converged floodfills' flood
        # rows assemble in O(1) from the same selection — the top-k over
        # active-minus-source is the top-(k+1) over active with the
        # source dropped.
        ff_sizes: Dict[int, int] = {}
        top4_by_idx: Dict[int, List[int]] = {}
        targets_by_idx: Dict[int, Sequence[int]] = {}
        full_idx: List[int] = []
        full_dirs: List[int] = []
        part_idx: List[int] = []
        part_dirs: List[int] = []
        part_cols: List[np.ndarray] = []
        for idx, router in enumerate(routers):
            if router.floodfill:
                ff_sizes[idx] = len(router.known_floodfills)
            view = self._floodfill_view(router)
            if view.is_full or not view.alive_hashes:
                full_idx.append(idx)
                full_dirs.append(router.dir_index)
            else:
                part_idx.append(idx)
                part_dirs.append(router.dir_index)
                part_cols.append(view.alive_cols)
        if full_dirs:
            sel = select_closest_shared(
                key_words[np.array(full_dirs, dtype=np.int64)],
                key_words,
                hashes,
                ff_cols,
                ranked,
            )
            for idx, row in zip(full_idx, sel.tolist()):
                top4_by_idx[idx] = row
                targets_by_idx[idx] = row[:FLOOD_REDUNDANCY]
        if part_idx:
            lens = np.fromiter(
                (len(c) for c in part_cols), dtype=np.int64, count=len(part_cols)
            )
            splits = np.zeros(len(part_cols) + 1, dtype=np.int64)
            np.cumsum(lens, out=splits[1:])
            concat = np.concatenate(part_cols) if part_cols else np.empty(0, np.int64)
            sel = select_closest_segmented(
                key_words[np.asarray(part_dirs)], key_words, hashes,
                concat, splits, FLOOD_REDUNDANCY,
            )
            for idx, row in zip(part_idx, sel.tolist()):
                targets_by_idx[idx] = row

        # Flood rows for the frozen (non-floodfill) publishers, grouped
        # per flood source; floodfill publishers get theirs at their turn.
        tcache: Dict[int, tuple] = {}
        col_routers = self._col_router_map()
        flood_rows_by_idx = self._flood_rows_grouped(
            routers,
            {i: t for i, t in targets_by_idx.items() if not routers[i].floodfill},
            top4_by_idx,
            ff_cols,
            key_words,
            hashes,
            tcache,
            now,
        )

        # Cascade walk in legacy publisher order, store writes queued.
        empty_rows: Dict[int, Sequence[int]] = {}
        queues_get = queues.get
        cascade = self._cascade
        flood_rows_by_idx_get = flood_rows_by_idx.get
        for idx, (router, info) in enumerate(zip(routers, infos)):
            col = router.dir_index
            queue = queues_get(col)
            if queue is None:
                queues[col] = (router.store, [info])
            else:
                queue[1].append(info)
            if router.floodfill:
                row4 = top4_by_idx.get(idx)
                targets = targets_by_idx.get(idx)
                if len(router.known_floodfills) != ff_sizes[idx]:
                    view = self._floodfill_view(router)
                    pub_row = key_words[col : col + 1]
                    if view.is_full or not view.alive_hashes:
                        row4 = select_closest_shared(
                            pub_row, key_words, hashes, ff_cols, ranked
                        )[0].tolist()
                        targets = row4[:FLOOD_REDUNDANCY]
                    else:
                        row4 = None
                        targets = select_closest_shared(
                            pub_row, key_words, hashes, view.alive_cols,
                            FLOOD_REDUNDANCY,
                        )[0].tolist()
                flood_rows = self._flood_rows_for_publisher(
                    router.identity._hash, col, targets, row4, key_words,
                    hashes, tcache, now,
                )
                delivered += cascade(info, targets, flood_rows, col_routers, queues)
            else:
                delivered += cascade(
                    info, targets_by_idx[idx],
                    flood_rows_by_idx_get(idx, empty_rows), col_routers, queues,
                )

        # Apply the coalesced per-store delivery queues (writes are in
        # exact legacy order within each store).
        for store, queued in queues.values():
            store.store_routerinfos_batch(queued)

        # Record the round's write structure for the replay fast path.
        # Only a *fresh* round with zero candidate-set growth is a valid
        # template: growth mid-round means selections shifted while
        # publishing, and a stale round skipped writes a fresh one makes.
        if fresh and sum(len(r.known_floodfills) for r in routers) == sizes_sum:
            index = directory.index
            entries = []
            for store, queued in queues.values():
                seen: Set[bytes] = set()
                uniq: List[Tuple[bytes, int]] = []
                for info in queued:
                    pub_hash = info.identity._hash
                    if pub_hash not in seen:
                        seen.add(pub_hash)
                        uniq.append((pub_hash, index[pub_hash]))
                entries.append((store, uniq, len(queued), len(uniq)))
            replay = _ReplayCache()
            replay.epoch = self._topology_epoch
            replay.key_date = date_string_for_time(now)
            replay.sizes_sum = sizes_sum
            replay.versions_sum = versions_sum
            replay.order_sum = order_sum
            replay.ff_count = ff_count
            replay.delivered = delivered
            replay.pub_cols = pub_cols
            replay.entries = entries
            self._replay = replay

        self.messages_delivered += delivered
        return delivered

    def _publish_replay(
        self, replay: _ReplayCache, routers: List[SimulatedRouter], now: float
    ) -> int:
        """Re-apply a recorded publish round with re-stamped RouterInfos.

        Byte-exact against the slow path under the caller's guards: every
        cached (store, hash) pair exists (writes created it in the build
        round; removals would have bumped ``order_epoch``), the round is
        strictly fresher than anything stored, and every
        ``known_floodfills`` add the recorded round performed was already
        a no-op then — so per store the unique writes refresh, the
        duplicates reject stale, and nothing else moves.
        """
        info_by_col: Dict[int, RouterInfo] = {}
        for router in routers:
            info_by_col[router.dir_index] = router.routerinfo(now)
        self.directory.note_published(replay.pub_cols, now)
        for store, uniq, n_writes, n_uniq in replay.entries:
            routerinfos = store._routerinfos
            for pub_hash, col in uniq:
                routerinfos[pub_hash] = info_by_col[col]
            stats = store.stats
            stats.stores_refreshed += n_uniq
            stats.stores_rejected_stale += n_writes - n_uniq
            store._max_published = now
        self.plane_stats["replay_rounds"] += 1
        self.messages_delivered += replay.delivered
        return replay.delivered

    def _flood_rows_for_publisher(
        self,
        pub_hash: bytes,
        pub_dir: int,
        target_cols: Sequence[int],
        row4: Optional[List[int]],
        key_words: np.ndarray,
        hashes: List[bytes],
        tcache: Dict[int, tuple],
        now: float,
    ) -> Dict[int, Sequence[int]]:
        """Flood-neighbour rows for one publisher's potential flood sources.

        ``row4`` is the publisher's top-(redundancy+1) selection over the
        active floodfill set when available; converged flood sources
        (candidates == active minus self) assemble their row from it
        without another ranking pass.
        """
        rows: Dict[int, Sequence[int]] = {}
        pub_row = None
        tcache_get = tcache.get
        for t_col in target_cols:
            if t_col < 0 or t_col == pub_dir:
                continue  # self-stores are always stale; never flood
            t_col = int(t_col)
            entry = tcache_get(t_col)
            if entry is None:
                entry = self._target_entry(t_col, tcache)
            store_get = entry[1]
            if store_get is None:
                continue
            existing = store_get(pub_hash)
            if existing is not None and existing.published_at >= now:
                continue  # delivery cannot flood; no table needed
            if entry[3] and row4 is not None:
                rows[t_col] = [
                    c for c in row4 if c != t_col and c >= 0
                ][:FLOOD_REDUNDANCY]
            else:
                if pub_row is None:
                    pub_row = key_words[pub_dir : pub_dir + 1]
                rows[t_col] = select_closest_shared(
                    pub_row, key_words, hashes, entry[2], FLOOD_REDUNDANCY
                )[0].tolist()
        return rows

    def _flood_rows_grouped(
        self,
        publishers: List[SimulatedRouter],
        targets_by_pos: Dict[int, Sequence[int]],
        top4_by_pos: Dict[int, List[int]],
        ff_cols: np.ndarray,
        key_words: np.ndarray,
        hashes: List[bytes],
        tcache: Dict[int, tuple],
        now: float,
    ) -> Dict[int, Dict[int, Sequence[int]]]:
        """Flood-neighbour rows for every (publisher, flood source) pair.

        Converged flood sources assemble rows from the publishers'
        top-(redundancy+1) selections (computed lazily, in one batch, for
        publishers that only have a partial-view selection so far); the
        remaining needs are grouped per flood source so each candidate set
        is ranked against all of its prospective publishers at once.
        """
        result: Dict[int, Dict[int, Sequence[int]]] = {}
        needs: Dict[int, List[int]] = {}  # t_col -> positions
        pending: List[Tuple[int, int]] = []  # (pos, t_col) awaiting a top4 row
        tcache_get = tcache.get
        flood_redundancy = FLOOD_REDUNDANCY
        for pos, target_cols in targets_by_pos.items():
            pub_hash = publishers[pos].identity._hash
            row4 = top4_by_pos.get(pos)
            for t_col in target_cols:
                if t_col < 0:
                    continue
                entry = tcache_get(t_col)
                if entry is None:
                    entry = self._target_entry(t_col, tcache)
                store_get = entry[1]
                if store_get is None:
                    continue
                existing = store_get(pub_hash)
                if existing is not None and existing.published_at >= now:
                    continue
                if entry[3]:
                    if row4 is None:
                        pending.append((pos, t_col))
                    else:
                        result.setdefault(pos, {})[t_col] = [
                            c for c in row4 if c != t_col and c >= 0
                        ][:flood_redundancy]
                else:
                    needs.setdefault(t_col, []).append(pos)
        if pending:
            lazy_positions = sorted({pos for pos, _ in pending})
            dirs = np.array(
                [publishers[pos].dir_index for pos in lazy_positions],
                dtype=np.int64,
            )
            sel = select_closest_shared(
                key_words[dirs], key_words, hashes, ff_cols, FLOOD_REDUNDANCY + 1
            )
            for pos, row in zip(lazy_positions, sel.tolist()):
                top4_by_pos[pos] = row
            for pos, t_col in pending:
                row4 = top4_by_pos[pos]
                result.setdefault(pos, {})[t_col] = [
                    c for c in row4 if c != t_col and c >= 0
                ][:flood_redundancy]
        for t_col, positions in needs.items():
            cols = tcache[t_col][2]
            pub_dirs = np.fromiter(
                (publishers[pos].dir_index for pos in positions),
                dtype=np.int64,
                count=len(positions),
            )
            sel = select_closest_shared(
                key_words[pub_dirs], key_words, hashes, cols, FLOOD_REDUNDANCY
            )
            for pos, row in zip(positions, sel.tolist()):
                result.setdefault(pos, {})[t_col] = row
        return result

    def _deliver_store(
        self, target_hash: bytes, from_hash: bytes, info: RouterInfo
    ) -> int:
        """Deliver a DSM to a floodfill, following flood propagation."""
        target = self.routers.get(target_hash)
        if target is None or target.floodfill_state is None:
            return 0
        message = DatabaseStoreMessage(from_hash=from_hash, entry=info, reply_token=1)
        result = target.floodfill_state.handle_store(message, self.clock.now)
        delivered = 1
        if info.is_floodfill:
            target.known_floodfills.add(info.hash)
        for flood_target in result.flooded_to:
            neighbour = self.routers.get(flood_target)
            if neighbour is None or neighbour.floodfill_state is None:
                continue
            flood_message = DatabaseStoreMessage(
                from_hash=target_hash, entry=info, reply_token=0
            )
            neighbour.floodfill_state.handle_store(flood_message, self.clock.now)
            if info.is_floodfill:
                neighbour.known_floodfills.add(info.hash)
            delivered += 1
        return delivered

    def explore(self, router_hash: bytes, lookups: int = 3) -> int:
        """A router sends exploration DLMs to floodfills to learn new peers.

        Returns the number of new RouterInfos learned.  Dispatches to the
        batched message plane unless the network was built with
        ``batched=False``.
        """
        if self.batched:
            return self._explore_batched(router_hash, lookups)
        return self._explore_legacy(router_hash, lookups)

    def _explore_legacy(self, router_hash: bytes, lookups: int = 3) -> int:
        """Reference per-message exploration loop (the equivalence oracle)."""
        faults = self.faults
        if faults is not None and faults.crashed(router_hash, self.clock.now):
            return 0  # a crashed floodfill does not explore
        router = self.routers[router_hash]
        # Sampling from a sorted candidate list keeps the draw independent
        # of set iteration order (which varies with insertion history and
        # PYTHONHASHSEED) — both message planes sample identically.
        floodfills = sorted(h for h in router.known_floodfills if h in self.routers)
        if not floodfills:
            floodfills = self.floodfill_hashes()
        if not floodfills:
            return 0
        learned = 0
        targets = self.rng.sample(floodfills, min(lookups, len(floodfills)))
        for target_hash in targets:
            target = self.routers[target_hash]
            if target.floodfill_state is None:
                continue
            if faults is not None and (
                faults.crashed(target_hash, self.clock.now)
                or faults.message_dropped(
                    router_hash, target_hash, self.clock.now, CHANNEL_EXPLORE
                )
            ):
                continue  # request lost or target down: no reply
            # Take the first 200 known hashes straight off the store instead
            # of copying the whole netDb into a fresh set per lookup.
            message = DatabaseLookupMessage(
                from_hash=router_hash,
                key=router_hash,
                lookup_type=LookupType.EXPLORATION,
                exclude_hashes=tuple(islice(router.store.iter_router_hashes(), 200)),
                max_results=16,
            )
            response = target.floodfill_state.handle_lookup(message, self.clock.now)
            self.messages_delivered += 1
            if isinstance(response, list):
                for info in response:
                    if router.learn(info):
                        learned += 1
        return learned

    def _explore_exclude_set(self, router: SimulatedRouter) -> Set[bytes]:
        """The exclude set an exploration lookup by ``router`` carries.

        Equals ``{first 200 stored hashes} ∪ {router.hash}``, rebuilt only
        when the store's leading key prefix can actually have changed:
        entries were removed (``order_epoch``), or the store was still
        below 200 entries and its length moved.  Appends beyond the first
        200 leave the prefix intact.
        """
        store = router.store
        cached = self._explore_excludes.get(router.hash)
        length = len(store)
        if cached is not None:
            built_epoch, built_len, excludes = cached
            if built_epoch == store.order_epoch:
                if built_len == length or built_len >= 200:
                    return excludes
                # Append-only growth below the 200-prefix: the new hashes
                # sit at positions built_len.. in insertion order, so the
                # cached set is extended in place instead of rebuilt.
                excludes.update(islice(store.iter_router_hashes(), built_len, 200))
                self._explore_excludes[router.hash] = (built_epoch, length, excludes)
                return excludes
        self.plane_stats["explore_exclude_rebuilds"] += 1
        excludes = set(islice(store.iter_router_hashes(), 200))
        excludes.add(router.hash)
        self._explore_excludes[router.hash] = (store.order_epoch, length, excludes)
        return excludes

    def _explore_batched(self, router_hash: bytes, lookups: int = 3) -> int:
        """Exploration without per-lookup message objects or netDb copies.

        Target sampling consumes ``self.rng`` exactly like the legacy
        loop (same sorted candidate list, via the cached floodfill view),
        and replies come straight from
        :meth:`FloodfillRouterState.exploration_infos`, which matches the
        DLM handler's reply list element for element.
        """
        faults = self.faults
        if faults is not None and faults.crashed(router_hash, self.clock.now):
            return 0  # a crashed floodfill does not explore
        router = self.routers[router_hash]
        view = self._floodfill_view(router)
        floodfills = view.alive_hashes
        if not floodfills:
            floodfills, _, _ = self._active_floodfills()
        if not floodfills:
            return 0
        learned = 0
        sent = 0
        targets = self.rng.sample(floodfills, min(lookups, len(floodfills)))
        # Locals for the reply-processing fast path: a stale RouterInfo the
        # router (and, for floodfills, its netDb-serving state) already
        # tracks reduces to a single rejected-stale counter bump — the
        # dominant case once the network has converged.
        routerinfos = router.store._routerinfos
        stats = router.store.stats
        known_ffs = router.known_floodfills
        own_state = router.floodfill_state
        state_known = own_state._known_floodfills if own_state is not None else None
        for target_hash in targets:
            target = self.routers[target_hash]
            if target.floodfill_state is None:
                continue
            if faults is not None and (
                faults.crashed(target_hash, self.clock.now)
                or faults.message_dropped(
                    router_hash, target_hash, self.clock.now, CHANNEL_EXPLORE
                )
            ):
                continue  # request lost or target down: no reply
            excludes = self._explore_exclude_set(router)
            response = target.floodfill_state.exploration_infos(excludes, 16)
            sent += 1
            for info in response:
                info_hash = info.identity._hash
                existing = routerinfos.get(info_hash)
                if existing is not None and info.published_at <= existing.published_at:
                    if not info.capacity.floodfill or (
                        info_hash in known_ffs
                        and (
                            state_known is None
                            or info_hash in state_known
                            or info_hash == router_hash
                        )
                    ):
                        stats.stores_rejected_stale += 1
                        continue
                if router.learn(info):
                    learned += 1
        self.messages_delivered += sent
        return learned

    def lookup_routerinfo(
        self, requester_hash: bytes, key: bytes, max_iterations: int = 8
    ) -> Optional[RouterInfo]:
        """Iterative RouterInfo lookup through floodfill routers."""
        if self.faults is not None:
            return self._lookup_routerinfo_faulty(requester_hash, key, max_iterations)
        requester = self.routers[requester_hash]
        local = requester.store.get_routerinfo(key)
        if local is not None:
            return local
        info = self._lookup_walk(requester, key, max_iterations, set())[0]
        if info is not None:
            requester.learn(info)
        return info

    def _lookup_routerinfo_faulty(
        self, requester_hash: bytes, key: bytes, max_iterations: int
    ) -> Optional[RouterInfo]:
        """RouterInfo lookup with timeouts, retries, and latency metrics.

        A query to a crashed floodfill, or one whose request/reply is
        dropped, *times out*: the iteration is consumed, the target stays
        excluded, and ``lookup_timeout_seconds`` of latency accrues.
        When a walk exhausts its iterations, the requester falls back to
        exploration (learning fresh floodfills) and retries the walk, up
        to ``lookup_retry_budget`` times with exponential backoff.  Every
        lookup records one outcome in the degradation metrics.
        """
        faults = self.faults
        assert faults is not None
        plan = faults.plan
        metrics = self.fault_metrics
        requester = self.routers[requester_hash]
        local = requester.store.get_routerinfo(key)
        if local is not None:
            metrics.note_lookup(True, 0, 0.0)
            return local
        queried: Set[int] = set()
        latency = 0.0
        rounds_used = 0
        for attempt in range(1 + plan.lookup_retry_budget):
            if attempt:
                latency += plan.backoff_base_seconds * (2.0 ** (attempt - 1))
                self.explore(requester_hash, lookups=3)
                hit = requester.store.get_routerinfo(key)
                if hit is not None:
                    metrics.note_lookup(True, rounds_used, latency)
                    return hit
            info, rounds, latency = self._lookup_walk(
                requester, key, max_iterations, queried, faults=faults, latency=latency
            )
            rounds_used += rounds
            if info is not None:
                requester.learn(info)
                metrics.note_lookup(True, rounds_used, latency)
                return info
        metrics.note_lookup(False, rounds_used, latency)
        return None

    def _lookup_walk(
        self,
        requester: SimulatedRouter,
        key: bytes,
        max_iterations: int,
        queried: Set[int],
        leaseset: bool = False,
        faults: Optional[FaultInjector] = None,
        latency: float = 0.0,
    ) -> Tuple[Optional[object], int, float]:
        """One iterative lookup walk (see the module docstring).

        Finds the RouterInfo, or with ``leaseset`` the LeaseSet, of
        ``key``.  ``queried`` holds the directory columns already asked
        and grows in place, so a retried walk skips them.  With
        ``faults``, a query to a crashed floodfill or a dropped one times
        out; the returned ``(entry, rounds, latency)`` then counts the
        queries made and adds their modelled latency to ``latency``.
        """
        now = self.clock.now
        directory = self.directory
        view = self._floodfill_view(requester)
        cands = view.alive_cols if view.alive_hashes else self._active_floodfills()[1]
        row = directory.index.get(key)
        if row is None:  # packed alone: the key is never registered
            target_words = pack_keys([routing_key(key, now)])[0]
        else:
            target_words = directory.key_words(now)[row]
        unqueried = ~np.isin(cands, list(queried))
        col_routers = self._col_router_map()
        rounds = 0
        for _ in range(max_iterations):
            remaining = cands[unqueried]
            if not len(remaining):
                break
            (col,) = select_closest_row(
                target_words, directory.key_words(now), directory.hashes, remaining, 1
            )
            queried.add(col)
            unqueried &= cands != col
            target = col_routers.get(col)
            if target is None or target.floodfill_state is None:
                continue
            state = target.floodfill_state
            if faults is not None:
                rounds += 1
                plan = faults.plan
                if faults.crashed(target.hash, now) or faults.message_dropped(
                    requester.hash, target.hash, now, CHANNEL_LOOKUP
                ):
                    latency += plan.lookup_timeout_seconds
                    self.fault_metrics.note_lookup_timeout()
                    continue
                latency += plan.hop_seconds
            self.messages_delivered += 1
            if state.crashed:
                continue  # a crashed floodfill answers nothing
            if leaseset:
                entry = state.store.get_leaseset(key)
            else:
                entry = state.store.get_routerinfo(key)
            if entry is not None:
                return entry, rounds, latency
            closer = self._closer_cols(
                state, target_words, queried | {requester.dir_index}
            )
            new = [c for c in closer if c in col_routers and not (cands == c).any()]
            if new:
                cands = np.concatenate((cands, np.array(new, dtype=np.int64)))
                unqueried = np.concatenate((unqueried, np.ones(len(new), dtype=bool)))
        return None, rounds, latency

    def _closer_cols(
        self,
        state: FloodfillRouterState,
        target_words: np.ndarray,
        excluded: Set[int],
    ) -> List[int]:
        """Columns of :meth:`FloodfillRouterState._closer_reply` for a key.

        Dropping the ``excluded`` columns leaves the order of the rest
        unchanged, so ranking ``len(excluded)`` extra columns and
        filtering them out equals ranking without them.
        """
        cols, _ = self._flood_candidate_cols(state, state.router_hash)
        ranked = select_closest_row(
            target_words,
            self.directory.key_words(self.clock.now),
            self.directory.hashes,
            cols,
            LOOKUP_CLOSER_COUNT + len(excluded),
        )
        return [c for c in ranked if c not in excluded][:LOOKUP_CLOSER_COUNT]

    # ------------------------------------------------------------------ #
    # Hidden services (eepsites): LeaseSet publication and lookup
    # ------------------------------------------------------------------ #
    def host_eepsite(
        self, host_hash: bytes, name: str = "", gateways: int = 2
    ) -> Destination:
        """Host a hidden service on a router and publish its LeaseSet.

        Inbound-tunnel gateways are selected from the host's netDb with the
        usual capacity-weighted selection; the resulting LeaseSet is stored
        at the floodfills closest to the destination's routing key, exactly
        like RouterInfo publication (Section 2.1.2).
        """
        host = self.routers[host_hash]
        destination = Destination(
            identity=RouterIdentity.generate(self.rng), name=name
        )
        host.hosted_destinations[destination.hash] = destination
        self.publish_leaseset(host_hash, destination, gateways=gateways)
        return destination

    def publish_leaseset(
        self, host_hash: bytes, destination: Destination, gateways: int = 2
    ) -> Optional[LeaseSet]:
        """(Re)build the destination's inbound tunnels and publish its LeaseSet."""
        host = self.routers[host_hash]
        candidates = [
            info
            for info in host.store.routerinfos()
            if info.hash != host_hash and info.hash in self.routers
        ]
        selected = self.tunnel_builder._selector.select_hops(candidates, gateways)
        if not selected:
            # Fall back to the host itself acting as its own gateway.
            gateway_hashes = [host_hash]
        else:
            gateway_hashes = [info.hash for info in selected]
        leases = tuple(
            Lease(
                gateway_hash=gateway_hash,
                tunnel_id=self.rng.randint(1, 2**31 - 1),
                expires_at=self.clock.now + LEASE_DURATION,
            )
            for gateway_hash in gateway_hashes
        )
        leaseset = LeaseSet(
            destination=destination, leases=leases, published_at=self.clock.now
        )
        host.store.store_leaseset(leaseset)

        floodfills = [h for h in host.known_floodfills if h in self.routers]
        if not floodfills:
            floodfills = self.floodfill_hashes()
        if floodfills:
            target_key = routing_key(destination.hash, self.clock.now)
            targets = select_closest(
                target_key, floodfills, FLOOD_REDUNDANCY, self.clock.now
            )
            for target_hash in targets:
                target = self.routers.get(target_hash)
                if target is None or target.floodfill_state is None:
                    continue
                message = DatabaseStoreMessage(
                    from_hash=host_hash, entry=leaseset, reply_token=1
                )
                target.floodfill_state.handle_store(message, self.clock.now)
                self.messages_delivered += 1
        return leaseset

    def lookup_leaseset(
        self, requester_hash: bytes, destination_hash: bytes, max_iterations: int = 8
    ) -> Optional[LeaseSet]:
        """Iterative LeaseSet lookup through the floodfill DHT."""
        requester = self.routers[requester_hash]
        local = requester.store.get_leaseset(destination_hash)
        if local is not None and not local.is_expired(self.clock.now):
            return local
        leaseset = self._lookup_walk(
            requester, destination_hash, max_iterations, set(), leaseset=True
        )[0]
        if leaseset is not None:
            requester.store.store_leaseset(leaseset)
        return leaseset

    def fetch_eepsite(
        self,
        requester_hash: bytes,
        destination_hash: bytes,
        blocked_ips: Optional[Set[str]] = None,
    ) -> Tuple[bool, float]:
        """Fetch a page from a hidden service at the message level.

        Returns ``(succeeded, elapsed_seconds)``.  The fetch needs a
        LeaseSet lookup, an outbound tunnel for the requester, and a
        reachable inbound gateway from the LeaseSet; a censor blocklist can
        be supplied to emulate the null-routing of Section 6.2.3.
        """
        blocked_ips = blocked_ips or set()
        requester = self.routers[requester_hash]
        elapsed = 0.0

        leaseset = self.lookup_leaseset(requester_hash, destination_hash)
        elapsed += 0.5
        if leaseset is None:
            return False, elapsed

        candidates = [
            info
            for info in requester.store.routerinfos()
            if info.hash != requester_hash and info.hash in self.routers
        ]
        result = self.tunnel_builder.build(
            candidates,
            TunnelDirection.OUTBOUND,
            self.clock.now,
            blocked_ips=blocked_ips,
        )
        elapsed += result.elapsed_seconds
        if not result.succeeded:
            return False, elapsed

        for gateway_hash in leaseset.gateway_hashes(self.clock.now):
            gateway = self.routers.get(gateway_hash)
            if gateway is None:
                continue
            if gateway.ip in blocked_ips and gateway_hash != requester_hash:
                elapsed += 2.0
                continue
            elapsed += 1.0
            return True, elapsed
        return False, elapsed

    # ------------------------------------------------------------------ #
    # Tunnels (the third discovery mechanism)
    # ------------------------------------------------------------------ #
    def build_client_tunnels(
        self, router_hash: bytes, pairs: int = 2, length: int = 2
    ) -> int:
        """Build ``pairs`` inbound/outbound tunnel pairs for a router.

        Hop routers learn the RouterInfos of the routers adjacent to them
        in each built tunnel, modelling the "learns about other adjacent
        routers in tunnels that it participates in" mechanism.
        """
        router = self.routers[router_hash]
        candidates = [
            info
            for info in router.store.routerinfos()
            if info.hash != router_hash and info.hash in self.routers
        ]
        built = 0
        for _ in range(pairs):
            for direction in (TunnelDirection.OUTBOUND, TunnelDirection.INBOUND):
                result = self.tunnel_builder.build(
                    candidates, direction, self.clock.now, length=length
                )
                if not result.succeeded or result.tunnel is None:
                    continue
                built += 1
                self._propagate_tunnel_knowledge(router, result.tunnel.hops)
        return built

    def _propagate_tunnel_knowledge(
        self, originator: SimulatedRouter, hops: Tuple[bytes, ...]
    ) -> None:
        chain: List[SimulatedRouter] = [originator]
        for hop_hash in hops:
            hop = self.routers.get(hop_hash)
            if hop is None:
                continue
            hop.participating_tunnels += 1
            chain.append(hop)
        for position, node in enumerate(chain):
            for neighbour_index in (position - 1, position + 1):
                if 0 <= neighbour_index < len(chain):
                    neighbour = chain[neighbour_index]
                    if neighbour.hash != node.hash:
                        node.learn(neighbour.routerinfo(self.clock.now))

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #
    def step_hours(self, hours: float = 1.0) -> None:
        """Advance the clock and apply store expiry on every router."""
        self.clock.advance_hours(hours)
        for router in self.routers.values():
            router.store.expire(self.clock.now)

    def run_convergence_rounds(self, rounds: int = 3) -> None:
        """Run publish + exploration rounds so netDbs converge.

        A convenience used by integration tests and examples to reach a
        steady state quickly on small networks.
        """
        for _ in range(rounds):
            self.publish_all()
            for router_hash in list(self.routers.keys()):
                self.explore(router_hash, lookups=2)
            self.step_hours(0.25)
