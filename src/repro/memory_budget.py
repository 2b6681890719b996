"""Memory-budget driver: one campaign in a fresh process, RSS measured.

``ru_maxrss`` is a process-wide high-water mark, so a meaningful peak-RSS
number needs a process that has done nothing else.  This module is that
process: it runs exactly one main campaign on a chosen exposure backend
and prints a JSON record of what it cost —

.. code-block:: console

    $ python -m repro.memory_budget --scale 10 --days 10 \\
          --backend out-of-core --cache-dir /tmp/exposure --budget-mib 544

The record carries ``peak_rss_kib`` (normalised to KiB), wall seconds,
peer-days throughput, and a SHA-256 digest of the rendered campaign
summary — two runs at the same scale/seed must produce the same digest
regardless of backend, which is how the benchmark suite cross-checks the
out-of-core path at full scale without a second in-memory run's RAM.

With ``--budget-mib`` the driver exits non-zero when the peak RSS exceeds
the budget, so CI can gate on it directly.  The benchmark suite
(``benchmarks/test_perf_budget.py``) and the CI memory-budget job are the
two callers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["main", "run_budgeted_campaign"]


def _peak_rss_kib() -> int:
    # ru_maxrss is KiB on Linux but bytes on macOS — normalise to KiB.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak


def run_budgeted_campaign(
    scale: float,
    days: int,
    seed: int,
    backend: str,
    cache_dir: Optional[Path] = None,
) -> dict:
    """Run one main campaign and report its cost (see module docstring)."""
    from repro.core.campaign import run_main_campaign
    from repro.core.reporting import render_campaign_summary
    from repro.sim.exposure import ExposureEngine

    engine = ExposureEngine(cache_dir=cache_dir, backend=backend)
    start = time.perf_counter()
    result = run_main_campaign(
        days=days,
        scale=scale,
        seed=seed,
        collect_daily_ips=True,
        include_victim_client=True,
        engine=engine,
    )
    wall = time.perf_counter() - start
    engine.flush()
    summary = render_campaign_summary(result)
    peer_days = int(sum(result.daily_online_population))
    return {
        "backend": engine.backend,
        "scale": scale,
        "days": result.log.days_recorded,
        "seed": seed,
        "wall_seconds": round(wall, 3),
        "peer_days": peer_days,
        "peer_days_per_second": round(peer_days / wall, 1),
        "unique_peers": result.log.unique_peer_count,
        "summary_sha256": hashlib.sha256(summary.encode()).hexdigest(),
        "peak_rss_kib": _peak_rss_kib(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.memory_budget",
        description="Run one main campaign in this process and print a JSON "
        "record of peak RSS, wall time, and a summary digest.",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--days", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument(
        "--backend", choices=("in-memory", "out-of-core"), default="in-memory"
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="exposure cache directory (required for --backend out-of-core)",
    )
    parser.add_argument(
        "--budget-mib",
        type=float,
        default=None,
        help="fail (exit 1) when peak RSS exceeds this many MiB",
    )
    args = parser.parse_args(argv)
    if args.backend == "out-of-core" and args.cache_dir is None:
        parser.error("--backend out-of-core needs --cache-dir")

    record = run_budgeted_campaign(
        scale=args.scale,
        days=args.days,
        seed=args.seed,
        backend=args.backend,
        cache_dir=args.cache_dir,
    )
    if args.budget_mib is not None:
        record["budget_mib"] = args.budget_mib
        record["within_budget"] = record["peak_rss_kib"] <= args.budget_mib * 1024
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.budget_mib is not None and not record["within_budget"]:
        print(
            f"peak RSS {record['peak_rss_kib'] / 1024:.1f} MiB exceeds the "
            f"{args.budget_mib:.1f} MiB budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
