"""The geo/ASN enrichment interface: one provider contract, many backends.

The paper resolves every observed peer IP to a country and an ASN with a
locally installed MaxMind database (Section 3, Section 5.3.2).  Historically
this reproduction hard-wired that resolution to the synthetic
:class:`~repro.sim.geo.GeoRegistry`; this package turns it into a *plane*:
one :class:`GeoProvider` interface with pluggable implementations —

* :class:`~repro.enrichment.synthetic.SyntheticProvider` wraps the existing
  registry (the default; byte-identical to the historical path);
* :class:`~repro.enrichment.rangedb.RangeDbProvider` reads a compact
  sorted-range binary database compiled from CSV/JSON range tables
  (``repro geo build-db``), mmap-backed like an offline GeoLite2 reader.

Every lookup returns an :class:`Enrichment`: the resolved country, the ASN
(:data:`SENTINEL_ASN` = 0 for *unknown*, mirroring pyasn's convention of a
falsy ASN for unrouted space), and the originating prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SENTINEL_ASN",
    "Enrichment",
    "GeoProvider",
    "ipv4_to_int",
    "int_to_ipv4",
    "parse_prefix",
    "prefix_string",
    "split_range_to_prefixes",
]

#: The "unknown" ASN: gaps in the prefix/range tables resolve here.  Zero is
#: reserved by RFC 7607 and can never be a real origin AS, so it doubles as
#: a vectorisation-friendly sentinel (miss rows stay 0 in a batch result).
SENTINEL_ASN = 0

_MAX_IPV4 = 0xFFFFFFFF


@dataclass(frozen=True, slots=True)
class Enrichment:
    """One resolved address: where it is and which prefix covered it.

    ``asn`` is :data:`SENTINEL_ASN` (0) and ``country``/``prefix`` are
    ``None`` when the address falls outside the provider's tables.
    Slotted + frozen, so holding many of them is cheap.
    """

    ip: str
    country: Optional[str]
    asn: int
    prefix: Optional[str]

    @property
    def known(self) -> bool:
        return self.country is not None or self.asn != SENTINEL_ASN

    def as_dict(self) -> Dict[str, object]:
        return {
            "ip": self.ip,
            "country": self.country,
            "asn": self.asn,
            "prefix": self.prefix,
        }


def ipv4_to_int(ip: str) -> Optional[int]:
    """Parse dotted-quad IPv4 into a 32-bit integer (None if not IPv4)."""
    parts = ip.split(".")
    if len(parts) != 4:
        return None
    value = 0
    for part in parts:
        if not part.isdigit():
            return None
        octet = int(part)
        if octet > 255:
            return None
        value = (value << 8) | octet
    return value


def int_to_ipv4(value: int) -> str:
    return (
        f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}."
        f"{(value >> 8) & 0xFF}.{value & 0xFF}"
    )


def parse_prefix(prefix: str) -> Tuple[int, int]:
    """Parse ``a.b.c.d/len`` into ``(network, length)``.

    The network is canonicalised (host bits cleared); raises ``ValueError``
    for anything that is not a valid IPv4 CIDR prefix.
    """
    text = prefix.strip()
    if "/" not in text:
        raise ValueError(f"not a CIDR prefix (missing /length): {prefix!r}")
    address, _, length_text = text.partition("/")
    base = ipv4_to_int(address)
    if base is None:
        raise ValueError(f"not a valid IPv4 prefix address: {prefix!r}")
    try:
        length = int(length_text)
    except ValueError:
        raise ValueError(f"not a valid prefix length: {prefix!r}") from None
    if not 0 <= length <= 32:
        raise ValueError(f"prefix length out of range 0-32: {prefix!r}")
    mask = 0 if length == 0 else (_MAX_IPV4 << (32 - length)) & _MAX_IPV4
    return base & mask, length


def prefix_string(network: int, length: int) -> str:
    return f"{int_to_ipv4(network)}/{length}"


def split_range_to_prefixes(start: int, end: int) -> List[Tuple[int, int]]:
    """Minimal CIDR cover of the inclusive range ``[start, end]``.

    The standard greedy split: at each step take the largest aligned block
    starting at ``start`` that does not overshoot ``end``.  This is how a
    range-table database answers "which prefixes does this censor block".
    """
    if start > end:
        raise ValueError(f"range start {start} exceeds end {end}")
    if end > _MAX_IPV4:
        raise ValueError(f"range end {end} exceeds the IPv4 space")
    prefixes: List[Tuple[int, int]] = []
    while start <= end:
        size = start & -start if start else 1 << 32
        while start + size - 1 > end:
            size >>= 1
        prefixes.append((start, 33 - size.bit_length()))
        start += size
    return prefixes


class GeoProvider:
    """The enrichment contract every backend implements.

    Scalar :meth:`lookup` serves debug tooling (``repro geo lookup``); the
    vectorised :meth:`resolve_ints` serves analysis hot paths (censorship
    curves, benchmarks) where addresses are already 32-bit integers.
    Subclasses must implement :meth:`lookup`; the batch forms have generic
    fallbacks and vectorised overrides where the backend allows it.
    """

    #: Short identifier shown by ``repro geo lookup`` and the benchmarks.
    name = "abstract"

    # -- resolution ---------------------------------------------------- #
    def lookup(self, ip: str) -> Enrichment:
        raise NotImplementedError

    def lookup_batch(self, ips: Sequence[str]) -> List[Enrichment]:
        """Resolve many addresses; same results as per-address lookups."""
        return [self.lookup(ip) for ip in ips]

    def resolve_ints(self, addrs: np.ndarray) -> np.ndarray:
        """ASNs for a uint32 IPv4 address array (0 = unknown).

        Generic fallback loops over :meth:`lookup`; binary backends
        override it with a pure-NumPy path.
        """
        flat = np.asarray(addrs, dtype=np.uint32)
        out = np.empty(flat.size, dtype=np.uint32)
        for row, value in enumerate(flat.tolist()):
            out[row] = self.lookup(int_to_ipv4(value)).asn
        return out

    # -- country metadata (the censorship/press-freedom side) ---------- #
    def press_freedom_score(self, country_code: str) -> Optional[float]:
        """RSF press-freedom score for a country (None if unknown)."""
        return None

    def country_prefixes(self, country_code: str) -> Tuple[str, ...]:
        """The address prefixes originating in a country, sorted.

        This is the censor-profile source: a prefix-granular national
        censor blocks exactly these.  Empty when the backend cannot
        enumerate.
        """
        return ()

    def countries(self) -> Tuple[str, ...]:
        """Country codes the provider can enumerate (sorted; may be empty)."""
        return ()
