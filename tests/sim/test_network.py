"""Integration tests for the message-level network engine.

These tests exercise the four peer-discovery mechanisms from Section 4.2 of
the paper end to end: reseed bootstrap, DLM exploration, tunnel
participation, and floodfill flooding.
"""

import random

import pytest

from repro.netdb.kademlia import pack_keys
from repro.netdb.messages import DatabaseLookupMessage, LookupType
from repro.netdb.routerinfo import BandwidthTier
from repro.netdb.routing_key import routing_key
from repro.sim.network import I2PNetwork


class TestTopology:
    def test_add_and_remove_router(self):
        network = I2PNetwork(seed=1)
        router = network.add_router(floodfill=True)
        assert router.hash in network.routers
        assert network.remove_router(router.hash)
        assert not network.remove_router(router.hash)

    def test_routers_get_unique_ips_and_ports(self):
        network = I2PNetwork(seed=2)
        routers = [network.add_router() for _ in range(20)]
        endpoints = {(r.ip, r.port) for r in routers}
        assert len(endpoints) == 20

    def test_hidden_router_publishes_no_address(self):
        network = I2PNetwork(seed=3)
        hidden = network.add_router(hidden=True)
        info = hidden.routerinfo(network.clock.now)
        assert info.is_hidden


class TestReseedSync:
    def test_add_router_pushes_info_incrementally(self):
        network = I2PNetwork(seed=11)
        router = network.add_router()
        for server in network.reseed_servers:
            assert router.hash in {info.hash for info in server.known_routerinfos}

    def test_hidden_routers_not_pushed_to_reseeds(self):
        network = I2PNetwork(seed=12)
        hidden = network.add_router(hidden=True)
        for server in network.reseed_servers:
            assert hidden.hash not in {info.hash for info in server.known_routerinfos}

    def test_removed_router_forgotten_by_reseeds(self):
        network = I2PNetwork(seed=13)
        keeper = network.add_router()
        removed = network.add_router()
        assert network.remove_router(removed.hash)
        for server in network.reseed_servers:
            known = {info.hash for info in server.known_routerinfos}
            assert removed.hash not in known
            assert keeper.hash in known

    def test_batch_add_routers(self):
        network = I2PNetwork(seed=14)
        network.add_router(floodfill=True)
        batch = network.batch_add_routers(25)
        assert len(batch) == 25
        assert all(router.hash in network.routers for router in batch)
        # Every public batch member reaches the reseed servers exactly once.
        for server in network.reseed_servers:
            known = [info.hash for info in server.known_routerinfos]
            assert len(known) == len(set(known))
            for router in batch:
                assert router.hash in known

    def test_batch_converges_like_sequential(self):
        """A batched network reaches the same full netDb convergence a
        sequentially built one does (the topologies differ per-router —
        batch members bootstrap against the pre-batch network — but both
        must end with every router knowing every router)."""
        batched = I2PNetwork(seed=15)
        batched.add_router(floodfill=True)
        batched.batch_add_routers(10)
        sequential = I2PNetwork(seed=15)
        sequential.add_router(floodfill=True)
        for _ in range(10):
            sequential.add_router()
        assert len(batched.routers) == len(sequential.routers)
        batched.run_convergence_rounds(rounds=3)
        sequential.run_convergence_rounds(rounds=3)
        for network in (batched, sequential):
            total = len(network.routers)
            for router in network.routers.values():
                assert len(router.store) == total

    def test_batch_rejects_negative_count(self):
        network = I2PNetwork(seed=16)
        with pytest.raises(ValueError):
            network.batch_add_routers(-1)

    def test_late_joiner_gets_fresh_reseed_infos(self):
        """After a long clock advance, bootstrap infos must survive the
        next expiry pass (the reseed view is re-synced when stale)."""
        network = I2PNetwork(seed=17)
        for _ in range(8):
            network.add_router(floodfill=True)
        network.step_hours(30)  # beyond RouterInfo expiry
        newcomer = network.add_router()
        learned = len(newcomer.store)
        assert learned > 1
        network.step_hours(0.1)
        assert len(newcomer.store) == learned

    def test_late_floodfill_joiner_survives_short_floodfill_expiry(self):
        """Floodfill stores expire RouterInfos after 1h, so even a 2h-old
        reseed view must be refreshed before a floodfill bootstraps."""
        network = I2PNetwork(seed=18)
        for _ in range(8):
            network.add_router(floodfill=True)
        network.step_hours(2)
        newcomer = network.add_router(floodfill=True)
        learned = len(newcomer.store)
        assert learned > 1
        network.step_hours(0.1)
        assert len(newcomer.store) == learned


class TestBootstrap:
    def test_new_router_learns_peers_from_reseed(self):
        network = I2PNetwork(seed=4)
        for _ in range(10):
            network.add_router(floodfill=False)
        network.publish_all()
        newcomer = network.add_router()
        assert len(newcomer.store) > 0

    def test_bootstrap_learns_floodfills(self):
        network = I2PNetwork(seed=5)
        for _ in range(3):
            network.add_router(floodfill=True)
        for _ in range(5):
            network.add_router()
        newcomer = network.add_router()
        assert newcomer.known_floodfills


class TestPublishAndFlood:
    def test_publish_distributes_to_floodfills(self):
        network = I2PNetwork(seed=6)
        floodfills = [network.add_router(floodfill=True) for _ in range(4)]
        clients = [network.add_router() for _ in range(10)]
        delivered = network.publish_all()
        assert delivered > 0
        stored_anywhere = set()
        for ff in floodfills:
            stored_anywhere.update(ff.store.router_hashes())
        for client in clients:
            assert client.hash in stored_anywhere

    def test_flooding_spreads_entries_to_multiple_floodfills(self):
        network = I2PNetwork(seed=7)
        floodfills = [network.add_router(floodfill=True) for _ in range(6)]
        client = network.add_router()
        network.publish_all()
        holders = sum(1 for ff in floodfills if client.hash in ff.store)
        assert holders >= 2  # stored at the closest + flooded to neighbours


class TestExploration:
    def test_exploration_grows_netdb(self):
        network = I2PNetwork(seed=8)
        for _ in range(4):
            network.add_router(floodfill=True, bandwidth_tier=BandwidthTier.O)
        for _ in range(20):
            network.add_router()
        network.publish_all()
        newcomer = network.add_router(do_bootstrap=False)
        newcomer.known_floodfills.update(network.floodfill_hashes())
        before = len(newcomer.store)
        learned = network.explore(newcomer.hash, lookups=4)
        assert learned > 0
        assert len(newcomer.store) == before + learned

    def test_exploration_without_floodfills(self):
        network = I2PNetwork(seed=9)
        lonely = network.add_router()
        assert network.explore(lonely.hash) == 0


class TestLookups:
    def test_iterative_lookup_finds_published_router(self):
        network = I2PNetwork(seed=10)
        for _ in range(5):
            network.add_router(floodfill=True)
        target = network.add_router()
        requester = network.add_router()
        network.publish_all()
        found = network.lookup_routerinfo(requester.hash, target.hash)
        assert found is not None
        assert found.hash == target.hash
        # The requester caches the result locally.
        assert target.hash in requester.store

    def test_lookup_unknown_key_returns_none(self):
        network = I2PNetwork(seed=11)
        for _ in range(3):
            network.add_router(floodfill=True)
        requester = network.add_router()
        network.publish_all()
        assert network.lookup_routerinfo(requester.hash, b"\x42" * 32) is None

    def test_unregistered_key_stays_out_of_the_directory(self):
        network = I2PNetwork(seed=11)
        for _ in range(3):
            network.add_router(floodfill=True)
        requester = network.add_router()
        network.publish_all()
        size = len(network.directory)
        assert network.lookup_routerinfo(requester.hash, b"\x42" * 32) is None
        assert len(network.directory) == size

    def test_walk_closer_selection_matches_the_search_reply(self):
        """The walk's search-reply selection on packed keys equals
        FloodfillRouterState._closer_reply over hashes, dead known
        floodfills and unregistered keys included."""
        network = I2PNetwork(seed=21)
        for _ in range(30):
            network.add_router(floodfill=True, bandwidth_tier=BandwidthTier.O)
        network.batch_add_routers(170)
        network.run_convergence_rounds(rounds=3)
        floodfills = sorted(network.floodfill_hashes())
        network.remove_router(floodfills.pop())
        hashes = list(network.routers)
        index = network.directory.index
        rng = random.Random(5)
        for _ in range(200):
            state = network.routers[rng.choice(floodfills)].floodfill_state
            key = rng.choice(hashes) if rng.random() < 0.8 else rng.randbytes(32)
            requester = rng.choice(hashes)
            queried = {state.router_hash, *rng.sample(floodfills, rng.randint(0, 8))}
            message = DatabaseLookupMessage(
                from_hash=requester,
                key=key,
                lookup_type=LookupType.ROUTERINFO,
                exclude_hashes=tuple(queried),
            )
            reply = state._closer_reply(message, network.clock.now)
            cols = network._closer_cols(
                state,
                pack_keys([routing_key(key, network.clock.now)])[0],
                {index[h] for h in queried} | {index[requester]},
            )
            assert tuple(network.directory.hashes[c] for c in cols) == reply.closer_hashes


class TestTunnels:
    def test_tunnel_building_propagates_knowledge(self):
        network = I2PNetwork(seed=12)
        for _ in range(3):
            network.add_router(floodfill=True, bandwidth_tier=BandwidthTier.O)
        routers = [network.add_router(bandwidth_tier=BandwidthTier.N) for _ in range(15)]
        network.run_convergence_rounds(rounds=2)
        builder = routers[0]
        built = network.build_client_tunnels(builder.hash, pairs=3, length=2)
        assert built > 0
        participants = [r for r in network.routers.values() if r.participating_tunnels > 0]
        assert participants
        # At least one participant learned the builder through the tunnel.
        assert any(builder.hash in p.store for p in participants)


class TestConvergence:
    def test_convergence_gives_every_router_a_view(self, message_network):
        sizes = [len(r.store) for r in message_network.routers.values()]
        assert min(sizes) > 5
        assert message_network.messages_delivered > 0

    def test_floodfills_know_most_public_routers(self, message_network):
        total_public = sum(1 for r in message_network.routers.values() if not r.hidden)
        floodfills = [r for r in message_network.routers.values() if r.floodfill]
        best_view = max(len(ff.store) for ff in floodfills)
        assert best_view >= 0.5 * total_public

    def test_step_hours_expires_floodfill_entries(self):
        network = I2PNetwork(seed=13)
        ff = network.add_router(floodfill=True)
        network.add_router()
        network.publish_all()
        assert len(ff.store) > 0
        network.step_hours(2.0)  # floodfill expiry is one hour
        assert len(ff.store) == 0
