"""Property-based tests (hypothesis) for core data structures and invariants."""

import random
from unittest.mock import patch

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import cumulative_share, share, summarize, survival_points
from repro.core.blocking import blocking_rate
from repro.netdb.identity import RouterIdentity, from_i2p_base64, sha256, to_i2p_base64
from repro.netdb.kademlia import closest_nodes, pack_keys, select_closest_row, xor_distance
from repro.netdb.routerinfo import BandwidthTier, parse_capacity_string
from repro.netdb.routing_key import SECONDS_PER_DAY, routing_key, select_closest
from repro.netdb.store import NetDbStore
from repro.sim.bandwidth import BandwidthModel
from repro.sim.churn import ChurnModel
from repro.transport.ports import is_possible_i2p_port, random_i2p_port

# Shared strategies -----------------------------------------------------------
keys32 = st.binary(min_size=32, max_size=32)
small_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
#: Keys that often tie on their first 64-bit word (three possible heads),
#: or are equal outright, so the word-0 selection has to fall back.
word0_ties = st.builds(
    bytes.__add__,
    st.sampled_from([b"\x00" * 8, b"\x80" * 8, b"\xff" * 8]),
    st.binary(min_size=24, max_size=24),
)
selection_keys = st.one_of(keys32, word0_ties, st.sampled_from([b"\x01" * 32, b"\xfe" * 32]))


class TestIdentityProperties:
    @given(st.binary(min_size=1, max_size=128))
    def test_base64_round_trip(self, data):
        assert from_i2p_base64(to_i2p_base64(data)) == data

    @given(st.binary(min_size=1, max_size=128))
    def test_i2p_alphabet_never_contains_plus_or_slash(self, data):
        encoded = to_i2p_base64(data)
        assert "+" not in encoded and "/" not in encoded

    @given(st.text(min_size=1, max_size=50))
    def test_identity_hash_is_stable_and_32_bytes(self, seed):
        a = RouterIdentity.from_seed(seed)
        b = RouterIdentity.from_seed(seed)
        assert a.hash == b.hash
        assert len(a.hash) == 32


class TestXorMetricProperties:
    @given(keys32, keys32)
    def test_symmetry(self, a, b):
        assert xor_distance(a, b) == xor_distance(b, a)

    @given(keys32)
    def test_identity_of_indiscernibles(self, a):
        assert xor_distance(a, a) == 0

    @given(keys32, keys32, keys32)
    def test_triangle_inequality(self, a, b, c):
        assert xor_distance(a, c) <= xor_distance(a, b) + xor_distance(b, c)

    @given(keys32, st.lists(keys32, min_size=1, max_size=30), st.integers(1, 10))
    def test_closest_nodes_sorted_by_distance(self, target, candidates, count):
        result = closest_nodes(target, candidates, count)
        distances = [xor_distance(target, key) for key in result]
        assert distances == sorted(distances)
        assert len(result) == min(count, len(set(candidates)) if False else len(candidates))

    @given(keys32, st.lists(keys32, min_size=2, max_size=30))
    def test_closest_node_is_global_minimum(self, target, candidates):
        best = closest_nodes(target, candidates, 1)[0]
        assert xor_distance(target, best) == min(
            xor_distance(target, key) for key in candidates
        )


class TestRoutingKeyProperties:
    @given(keys32, st.floats(min_value=0, max_value=100 * SECONDS_PER_DAY, allow_nan=False))
    def test_routing_key_is_32_bytes(self, key, time):
        assert len(routing_key(key, time)) == 32

    @given(keys32, st.integers(min_value=0, max_value=365))
    def test_same_day_same_routing_key(self, key, day):
        start = day * SECONDS_PER_DAY
        assert routing_key(key, start + 1) == routing_key(key, start + SECONDS_PER_DAY - 1)


class TestOneRowSelectionProperties:
    @given(selection_keys, st.lists(selection_keys, max_size=24), st.integers(0, 6), st.data())
    def test_matches_select_closest(self, target, keys, count, data):
        """select_closest_row picks what select_closest picks when the
        candidates' routing keys are ``keys``: duplicate columns, sets of
        at most count + 1 and the empty set included."""
        ids = [sha256(bytes([i])) for i in range(len(keys))]
        cols = data.draw(st.lists(st.integers(0, len(keys) - 1), max_size=30)) if keys else []
        key_of = dict(zip(ids, keys))
        with patch("repro.netdb.routing_key.routing_key", lambda key, _time: key_of[key]):
            expected = select_closest(target, [ids[c] for c in cols], count, 0.0)
        selected = select_closest_row(
            pack_keys([target])[0], pack_keys(keys), ids, np.array(cols, dtype=np.int64), count
        )
        assert [ids[c] for c in selected] == expected


class TestCapacityStringProperties:
    @given(
        st.lists(st.sampled_from(list("KLMNOPX")), min_size=1, max_size=3, unique=True),
        st.booleans(),
        st.sampled_from(["R", "U", ""]),
    )
    def test_parse_round_trip_preserves_flags(self, tiers, floodfill, reach):
        caps = "".join(tiers) + ("f" if floodfill else "") + reach
        parsed = parse_capacity_string(caps)
        assert parsed.floodfill == floodfill
        assert {t.value for t in parsed.tiers} == set(tiers)
        assert parsed.reachable == (reach == "R")

    @given(st.floats(min_value=0, max_value=100_000, allow_nan=False))
    def test_every_bandwidth_maps_to_exactly_one_tier(self, kbps):
        tier = BandwidthTier.for_bandwidth(kbps)
        assert tier.min_kbps <= kbps
        assert kbps < tier.max_kbps or tier is BandwidthTier.X


class TestStoreProperties:
    @given(st.lists(st.tuples(st.text(min_size=1, max_size=8), small_floats), max_size=40))
    def test_store_keeps_newest_per_peer(self, entries):
        from repro.netdb.routerinfo import RouterInfo

        store = NetDbStore()
        newest = {}
        for seed, published_at in entries:
            info = RouterInfo(
                identity=RouterIdentity.from_seed(seed),
                addresses=(),
                capacity=parse_capacity_string("LU"),
                published_at=published_at,
            )
            store.store_routerinfo(info)
            key = info.hash
            newest[key] = max(newest.get(key, -1.0), published_at)
        assert len(store) == len(newest)
        for key, published_at in newest.items():
            assert store.get_routerinfo(key).published_at == published_at


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
    def test_summary_bounds(self, values):
        stats = summarize(values)
        assert stats.minimum <= stats.median <= stats.maximum
        # The mean may drift from the min/max by a rounding error (1 ulp).
        span = max(abs(stats.minimum), abs(stats.maximum), 1e-300)
        tolerance = span * 1e-12
        assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance
        assert stats.count == len(values)

    @given(st.dictionaries(st.text(min_size=1, max_size=5), st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=20))
    def test_share_sums_to_one_or_zero(self, counts):
        total = sum(share(counts).values())
        assert total == 0.0 or abs(total - 1.0) < 1e-9

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
    def test_cumulative_share_monotone_and_bounded(self, counts):
        cumulative = cumulative_share(counts)
        assert all(b >= a - 1e-12 for a, b in zip(cumulative, cumulative[1:]))
        assert all(0.0 <= value <= 1.0 + 1e-9 for value in cumulative)

    @given(
        st.lists(st.floats(min_value=0, max_value=365, allow_nan=False), min_size=1, max_size=100),
        st.lists(st.floats(min_value=0, max_value=365, allow_nan=False), min_size=1, max_size=20),
    )
    def test_survival_curve_monotone_nonincreasing(self, values, thresholds):
        thresholds = sorted(thresholds)
        points = survival_points(values, thresholds)
        fractions = [fraction for _, fraction in points]
        assert all(b <= a + 1e-12 for a, b in zip(fractions, fractions[1:]))


class TestBlockingRateProperties:
    @given(st.sets(st.text(min_size=1, max_size=6)), st.sets(st.text(min_size=1, max_size=6)))
    def test_rate_bounded(self, censor, victim):
        rate = blocking_rate(censor, victim)
        assert 0.0 <= rate <= 1.0

    @given(
        st.sets(st.text(min_size=1, max_size=6)),
        st.sets(st.text(min_size=1, max_size=6)),
        st.sets(st.text(min_size=1, max_size=6)),
    )
    def test_rate_monotone_in_censor_set(self, censor, extra, victim):
        assert blocking_rate(censor | extra, victim) >= blocking_rate(censor, victim)

    @given(st.sets(st.text(min_size=1, max_size=6), min_size=1))
    def test_full_knowledge_full_blocking(self, victim):
        assert blocking_rate(set(victim), victim) == 1.0


class TestModelProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_bandwidth_sample_internally_consistent(self, seed):
        model = BandwidthModel()
        assignment = model.sample(random.Random(seed))
        assert assignment.primary_tier in assignment.advertised_tiers
        assert assignment.shared_kbps >= 0
        assert BandwidthTier.for_bandwidth(assignment.shared_kbps) is assignment.primary_tier

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_churn_schedule_valid(self, seed, join_day):
        model = ChurnModel(rng=random.Random(seed))
        schedule = model.sample_schedule(join_day)
        assert schedule.join_day == join_day
        assert schedule.leave_day > schedule.join_day
        assert 0.0 <= schedule.online_probability <= 1.0

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50)
    def test_random_port_always_valid(self, seed):
        port = random_i2p_port(random.Random(seed))
        assert is_possible_i2p_port(port)
