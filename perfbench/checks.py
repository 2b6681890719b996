"""Correctness checks on the program's outputs.

Every check recomputes what it verifies by a route that shares no code with
the program's own: Figure-13 points from the raw per-day address columns
and observation masks, routing keys from ``hashlib``.  Each function
returns a list of problems (empty when the check passes), so a pass can
count failed operations and report what went wrong.  ``test_checks.py``
shows that every check fails on a perturbed input.
"""

from __future__ import annotations

import datetime
import hashlib
import math
from typing import Callable, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

#: Victim netDb history the program's Figure 13 uses (days).
VICTIM_HISTORY_DAYS = 2

#: Day 0 of the simulator's clock: the start of the paper's main campaign.
#: Routing keys rotate with the UTC date counted from here.
SIMULATION_EPOCH = datetime.date(2018, 2, 1)

DayIps = Callable[[Hashable, int], Set[str]]


# --------------------------------------------------------------------------- #
# Figure 13
# --------------------------------------------------------------------------- #
def window_ips(day_ips: DayIps, router: Hashable, end_day: int, window: int) -> Set[str]:
    """Union of the addresses ``router`` saw in the ``window`` days ending
    at ``end_day`` (inclusive), clipped at day 0."""
    union: Set[str] = set()
    for day in range(max(0, end_day - window + 1), end_day + 1):
        union |= day_ips(router, day)
    return union


def figure13_rate(
    day_ips: DayIps,
    censors: Sequence[Hashable],
    victim: Hashable,
    evaluation_day: int,
    window: int,
) -> float:
    """Blocking rate (%) of the censor's first routers, per the paper's
    definition: victim netDb addresses also in the censor's blacklist."""
    victim_ips = window_ips(day_ips, victim, evaluation_day, VICTIM_HISTORY_DAYS)
    if not victim_ips:
        return 0.0
    blacklist: Set[str] = set()
    for censor in censors:
        blacklist |= window_ips(day_ips, censor, evaluation_day, window)
    return len(blacklist & victim_ips) / len(victim_ips) * 100.0


def series_window(name: str) -> int:
    """``"5 days"`` -> 5 (the program's Figure-13 series names)."""
    return int(name.split()[0])


def check_figure13_points(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    expected: Mapping[Tuple[int, int], float],
) -> List[str]:
    """Figure-13 points at (routers, window) must equal their recomputation."""
    problems = []
    by_window = {series_window(name): dict(points) for name, points in series.items()}
    for (routers, window), rate in sorted(expected.items()):
        got = by_window.get(window, {}).get(float(routers))
        if got != rate:
            problems.append(
                f"figure 13 at {routers} routers, {window}-day window: "
                f"program says {got}, recomputed {rate}"
            )
    return problems


def check_figure13_shape(series: Mapping[str, Sequence[Tuple[float, float]]]) -> List[str]:
    """Rates lie in [0, 100], never fall as routers are added, and a longer
    window never gives a lower rate."""
    problems = []
    windows = sorted((series_window(name), name) for name in series)
    for _, name in windows:
        ys = [y for _, y in series[name]]
        if any(not 0.0 <= y <= 100.0 for y in ys):
            problems.append(f"figure 13 series {name!r}: a rate outside [0, 100]")
        if any(later < earlier for earlier, later in zip(ys, ys[1:])):
            problems.append(f"figure 13 series {name!r}: falls as routers are added")
    for (_, shorter), (_, longer) in zip(windows, windows[1:]):
        longer_at = dict(series[longer])
        for x, y in series[shorter]:
            if longer_at.get(x, math.inf) < y:
                problems.append(
                    f"figure 13 at {x:g} routers: {longer!r} is below {shorter!r}"
                )
    return problems


# --------------------------------------------------------------------------- #
# netDb
# --------------------------------------------------------------------------- #
def check_lookup(key: bytes, info: Optional[object]) -> List[str]:
    """A RouterInfo a lookup returns must be the entry whose hash is the
    key.  A lookup that returns nothing has failed; the caller counts it."""
    if info is not None and getattr(info, "hash", None) != key:
        return [f"lookup of {key.hex()[:12]} returned another router's RouterInfo"]
    return []


def date_string(sim_seconds: float) -> bytes:
    """UTC ``YYYYMMDD`` of a simulator time, as routing keys hash it."""
    day = SIMULATION_EPOCH + datetime.timedelta(days=math.floor(sim_seconds / 86_400))
    return day.strftime("%Y%m%d").encode("ascii")


def routing_distance(a: bytes, b: bytes, date: bytes) -> int:
    """XOR distance of the daily routing keys SHA-256(hash || YYYYMMDD)."""
    key_a = int.from_bytes(hashlib.sha256(a + date).digest(), "big")
    key_b = int.from_bytes(hashlib.sha256(b + date).digest(), "big")
    return key_a ^ key_b


def check_closest_floodfill(
    router: bytes,
    known_floodfills: Sequence[bytes],
    holds: Callable[[bytes, bytes], bool],
    sim_seconds: float,
) -> List[str]:
    """The floodfill XOR-closest to ``router`` among those it knows must
    hold ``router``'s RouterInfo (``holds(floodfill, router)``)."""
    if not known_floodfills:
        return [f"router {router.hex()[:12]} knows no floodfill"]
    date = date_string(sim_seconds)
    closest = min(known_floodfills, key=lambda ff: (routing_distance(ff, router, date), ff))
    if not holds(closest, router):
        return [
            f"RouterInfo of {router.hex()[:12]} is missing from its closest "
            f"known floodfill {closest.hex()[:12]}"
        ]
    return []

