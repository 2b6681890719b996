"""Pluggable geo/ASN enrichment plane (PR 9).

One :class:`GeoProvider` contract, three backends (synthetic registry,
mmap'd sorted-range database, pyasn-style longest-prefix-match index) and
the session-active-provider plumbing the analyses resolve through.  See
``repro geo --help`` for the tooling.
"""

from .base import (
    SENTINEL_ASN,
    Enrichment,
    GeoProvider,
    int_to_ipv4,
    ipv4_to_int,
    parse_prefix,
    prefix_string,
    split_range_to_prefixes,
)
from .provider import (
    PROVIDER_KINDS,
    build_provider,
    default_provider,
    get_active_provider,
    resolve_provider,
    set_active_provider,
    use_provider,
)
from .radix import PrefixIndex
from .rangedb import (
    RangeDbProvider,
    RangeRow,
    compile_range_db,
    load_rows,
    rows_from_registry,
)
from .synthetic import SyntheticProvider

__all__ = [
    "SENTINEL_ASN",
    "Enrichment",
    "GeoProvider",
    "PrefixIndex",
    "RangeDbProvider",
    "RangeRow",
    "SyntheticProvider",
    "PROVIDER_KINDS",
    "build_provider",
    "compile_range_db",
    "default_provider",
    "get_active_provider",
    "int_to_ipv4",
    "ipv4_to_int",
    "load_rows",
    "parse_prefix",
    "prefix_string",
    "resolve_provider",
    "rows_from_registry",
    "set_active_provider",
    "split_range_to_prefixes",
    "use_provider",
]
