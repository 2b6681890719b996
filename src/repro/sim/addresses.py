"""Integer address keys: one ``int64`` per synthetic peer address.

Every address the population allocates gets one integer key where it is
allocated (:meth:`~repro.sim.geo.AutonomousSystem.ipv4_key` /
:meth:`~repro.sim.geo.AutonomousSystem.ipv6_key`), and the campaign
carries keys — through the population columns, the exposure bundle, the
observation log and the monitors' daily address sets — instead of
strings.  Strings are formatted only where output is written.

* An IPv4 key is the address's 32-bit value, so it is below ``2**32``.
* A synthetic IPv6 key (``2a<x>:<asn>::<host>``, see
  :meth:`~repro.sim.geo.AutonomousSystem.ipv6_for`) is
  ``1 << 32 | (asn & 0xFFFF) << 16 | (host & 0xFFFF)``, so it is at or
  above ``2**32``.
* :data:`NO_ADDRESS` (−1) means no address.

Keys and strings map one-to-one, so a set of keys has exactly as many
members as the set of strings it stands for: every count the analyses
report is the same on either representation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "NO_ADDRESS",
    "IPV6_KEY_BASE",
    "format_address",
    "format_addresses",
    "address_key",
    "key_positions",
]

#: The key of "no address" (a peer without IPv6, an empty slot).
NO_ADDRESS = -1

#: Every IPv6 key is at or above this value; every IPv4 key is below it.
IPV6_KEY_BASE = 1 << 32


def format_address(key: int) -> Optional[str]:
    """The address string a key stands for (``None`` for :data:`NO_ADDRESS`)."""
    if key < 0:
        return None
    if key < IPV6_KEY_BASE:
        return f"{key >> 24}.{key >> 16 & 0xFF}.{key >> 8 & 0xFF}.{key & 0xFF}"
    asn = key >> 16 & 0xFFFF
    return f"2a{asn % 16:01x}:{asn:x}::{key & 0xFFFF:x}"


def format_addresses(keys: np.ndarray) -> np.ndarray:
    """Object array of address strings (``None`` for :data:`NO_ADDRESS`)."""
    out = np.empty(len(keys), dtype=object)
    out[:] = [format_address(key) for key in np.asarray(keys).tolist()]
    return out


def address_key(text: Optional[str]) -> int:
    """The key of an address string; the inverse of :func:`format_address`.

    Accepts any dotted-quad IPv4 address and the synthetic IPv6 form the
    population allocates; anything else raises ``ValueError``.
    """
    if text is None:
        return NO_ADDRESS
    try:
        if ":" in text:
            _, asn, _, host = text.split(":")
            key = IPV6_KEY_BASE | int(asn, 16) << 16 | int(host, 16)
        else:
            first, second, third, fourth = (int(part) for part in text.split("."))
            key = first << 24 | second << 16 | third << 8 | fourth
    except ValueError:
        key = NO_ADDRESS
    if key < 0 or format_address(key) != text:
        raise ValueError(f"not a peer address: {text!r}")
    return key


def key_positions(sorted_keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of each of ``values`` in the sorted unique ``sorted_keys``, or −1."""
    values = np.asarray(values, dtype=np.int64)
    if not sorted_keys.size:
        return np.full(values.size, -1, dtype=np.int64)
    positions = np.searchsorted(sorted_keys, values)
    positions[positions == sorted_keys.size] = 0
    return np.where(sorted_keys[positions] == values, positions, -1)
