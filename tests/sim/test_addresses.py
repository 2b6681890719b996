"""The integer address key space: one int64 per synthetic peer address.

Keys must stand for address strings one-to-one — every set size the
analyses report is computed over keys — so these tests pin the formatter
against the strings the registry allocates, across the host-index wraps
of both address families.
"""

import numpy as np
import pytest

from repro.sim.addresses import (
    IPV6_KEY_BASE,
    NO_ADDRESS,
    address_key,
    format_address,
    format_addresses,
    key_positions,
)
from repro.sim.geo import default_registry

#: Host indices around the IPv4 254×254 wrap (64,516) and the IPv6 16-bit
#: wrap (65,536), plus the first rows of each third octet.
HOSTS = (0, 1, 253, 254, 255, 64_515, 64_516, 64_517, 65_535, 65_536, 65_537, 129_033)


@pytest.fixture(scope="module")
def allocated():
    """(key, string) for every AS's IPv4 and IPv6 address at each host."""
    pairs = []
    for asys in default_registry().autonomous_systems:
        for host in HOSTS:
            pairs.append((asys.ipv4_key(host), asys.ipv4_for(host)))
            pairs.append((asys.ipv6_key(host), asys.ipv6_for(host)))
    return pairs


class TestKeySpace:
    def test_formatted_key_equals_the_allocated_string(self, allocated):
        for key, text in allocated:
            assert format_address(key) == text

    def test_keys_are_equal_exactly_when_strings_are(self, allocated):
        string_of = {}
        key_of = {}
        for key, text in allocated:
            assert string_of.setdefault(key, text) == text
            assert key_of.setdefault(text, key) == key
        assert len(string_of) == len(key_of)

    def test_families_are_split_at_two_to_the_32(self):
        for asys in default_registry().autonomous_systems:
            for host in HOSTS:
                assert 0 <= asys.ipv4_key(host) < IPV6_KEY_BASE
                assert asys.ipv6_key(host) >= IPV6_KEY_BASE

    def test_address_key_inverts_the_formatter(self, allocated):
        for key, text in allocated:
            assert address_key(text) == key
            assert address_key(format_address(key)) == key
        assert address_key(None) == NO_ADDRESS
        assert format_address(NO_ADDRESS) is None

    @pytest.mark.parametrize(
        "text",
        ["2001:db8::1", "2a1:1ef2::10000", "1.2.3", "256.1.1.1", "01.2.3.4", "x"],
    )
    def test_address_key_rejects_non_peer_strings(self, text):
        with pytest.raises(ValueError, match="not a peer address"):
            address_key(text)

    def test_vector_formatter_matches_scalar(self, allocated):
        keys = np.asarray([key for key, _ in allocated] + [NO_ADDRESS])
        assert format_addresses(keys).tolist() == [
            text for _, text in allocated
        ] + [None]


class TestKeyPositions:
    def test_positions_of_present_and_absent_values(self):
        keys = np.asarray([3, 7, IPV6_KEY_BASE + 5], dtype=np.int64)
        values = np.asarray([7, NO_ADDRESS, 8, IPV6_KEY_BASE + 5, 3, 99])
        assert key_positions(keys, values).tolist() == [1, -1, -1, 2, 0, -1]

    def test_empty_key_array(self):
        empty = np.empty(0, dtype=np.int64)
        assert key_positions(empty, np.asarray([1, 2])).tolist() == [-1, -1]
