"""Shared configuration for the benchmark harness.

Every paper table and figure has one benchmark module.  The campaign-based
figures (5–13) share a single main-campaign run, executed once per session.

Scale knobs (environment variables):

``REPRO_BENCH_SCALE``
    Population scale relative to the paper's ~30.5K daily peers
    (default 0.1 → ~3K daily peers).  Use 1.0 to run at paper scale.
``REPRO_BENCH_DAYS``
    Campaign length in days for the main campaign (default 30; the paper
    ran for ~90 days).

Each benchmark prints the regenerated rows/series (visible with ``-s`` or
in the captured output section) so the shapes can be compared against the
paper.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core import CampaignResult, run_main_campaign  # noqa: E402


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))


def bench_days() -> int:
    return int(os.environ.get("REPRO_BENCH_DAYS", "30"))


def bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "2018"))


@pytest.fixture(scope="session")
def main_campaign() -> CampaignResult:
    """The 20-router main campaign shared by the Figure 5–13 benchmarks."""
    return run_main_campaign(
        days=bench_days(),
        scale=bench_scale(),
        seed=bench_seed(),
        collect_daily_ips=True,
        include_victim_client=True,
    )


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()
