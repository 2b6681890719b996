"""Perf budget — the columnar engine keeps paper-scale campaigns cheap.

Unlike the figure benchmarks (which default to ``REPRO_BENCH_SCALE=0.1``),
this module always runs the main campaign at **scale 1.0** (~30.5K daily
peers) for 10 days, because the columnar engine's whole point is that full
scale is affordable.  A passing run writes its record to
``.benchmarks/BENCH_campaign.json`` (git-ignored) with:

* ``campaign_wall_seconds`` — wall time of the 20-router main campaign
  (10 days, scale 1.0, daily IPs + victim client) on a cold exposure
  engine, plus ``campaign_days`` as *actually recorded* by the run;
* ``campaign_peer_days`` / ``campaign_peer_days_per_second`` — throughput
  in simulated peer-days;
* ``snapshot_allocations`` — ``PeerDaySnapshot`` objects materialised
  during the run (the vectorised pipeline must not allocate any);
* ``figure_suite_wall_seconds`` / ``figure_suite_to_campaign_ratio`` — the
  whole figure pipeline (main campaign + Figures 2–4 sweeps + the
  longevity / IP-churn / capacity analyses) off ONE shared exposure; the
  ratio against the single campaign is the shared-exposure engine's
  headline number and must stay ≤ 1.5;
* ``cached_two_sweep_wall_seconds`` — bandwidth + router-count sweeps
  re-run against the warm engine (pure cache hits);
* ``columnar_longevity_seconds`` / ``columnar_ip_churn_seconds`` — the
  accumulator-backed heavy analyses;
* ``network_curve`` — netDb publish throughput (DatabaseStoreMessages per
  second, steady state on the batched message plane) across network sizes
  (default 300 / 1 000 / 10 000 routers; override the axis with a
  comma-separated ``REPRO_BENCH_NETDB_COUNTS``).  Replaces the schema-v3
  single-point ``network_messages_per_second``;
* ``network_fault_overhead_ratio`` — 300-router steady-state publish
  round time with an attached all-zero ``FaultPlan`` over the plain
  round time.  The zero-fault path must cost nothing measurable
  (< 5 %): a no-op plan never builds an injector, so every fault check
  is one ``is None`` branch;
* ``accumulator_bytes`` / ``accumulator_peak_bytes`` — the observation
  log's columnar accumulator footprint (current and high-water), i.e. the
  working set of every streamed analysis;
* ``peak_rss_kib`` — process-wide peak resident set size (``ru_maxrss``);
* ``exposure_backend`` — the backend the main campaign entry ran on
  (always ``in_memory``; the out-of-core numbers live under
  ``memory_budget``);
* ``enrichment`` — the geo/ASN enrichment plane's batched lookup
  throughput (``resolve_ints`` over one million uniformly random IPv4
  addresses, best of three) for the synthetic provider and for a compiled
  sorted-range database, which must agree element-for-element; the
  range-DB path carries a hard ≥ 1M lookups/sec floor and the same > 20 %
  regression guard as the campaign throughput;
* ``campaign_service`` — a four-job ``monitor_fraction_sweep`` grid (one
  exposure digest) through the campaign service's planner + queue + runner
  versus the same four jobs as standalone ``run_scenario`` calls with cold
  engines.  ``grid_speedup`` (Σ standalone wall / grid wall) carries a hard
  ≥ 1.5× floor — the digest-grouped queue must amortise the shared
  ``SharedExposure`` build — and joins the > 20 % regression guard;
  ``queue_overhead_seconds_per_job`` isolates the claim/persist/commit cost
  the service adds around each job;
* ``memory_budget`` — three single-campaign subprocess runs through
  ``python -m repro.memory_budget`` (``ru_maxrss`` is process-wide, so a
  clean peak needs a fresh process each): the scale-1.0 in-memory
  reference, a scale-1.0 out-of-core run whose summary digest must equal
  the reference's (cross-backend byte identity at full scale), and the
  scale-``REPRO_BENCH_MEMORY_SCALE`` (default 10) out-of-core run whose
  peak RSS must stay under the fixed ``MEMORY_BUDGET_MIB`` ceiling.

The wall-clock assertions are deliberately loose sanity floors (CI
machines vary), **except** the peer-days/sec regression guard: if the
committed ``BENCH_campaign.json`` recorded a throughput more than 20 %
above the current run's best-of-``CAMPAIGN_REPETITIONS``, the benchmark
fails loudly — the trajectory from PR to PR must stay monotone on
comparable hardware.

The committed ``BENCH_campaign.json`` at the repository root is that
baseline, read through ``git show HEAD:BENCH_campaign.json``.  No run
rewrites it: the baseline moves only when someone copies a run record
over it and commits the copy.
"""

import json
import os
import resource
import sys
import time

from repro.core.campaign import run_figure_suite, run_main_campaign
from repro.core.churn_analysis import ip_churn, longevity
from repro.sim.exposure import ExposureEngine
from repro.sim.netdb_scale import DEFAULT_ROUTER_COUNTS, measure_netdb_scale
from repro.sim.population import reset_snapshot_allocations, snapshot_allocations

BENCH_DAYS = 10
BENCH_SCALE = 1.0
SCHEMA_VERSION = 8

#: Scale of the out-of-core memory-budget run (env-overridable so shared
#: CI runners can use a smaller multiple of the paper's population).
MEMORY_BUDGET_SCALE = float(os.environ.get("REPRO_BENCH_MEMORY_SCALE", "10"))

#: Peak-RSS ceiling (MiB) for the out-of-core campaign at
#: MEMORY_BUDGET_SCALE.  544 = 2x the scale-1.0 in-memory campaign peak
#: committed before the out-of-core store landed (BENCH schema v5:
#: 272 MiB) — a fixed budget, because the live scale-1.0 peak keeps
#: dropping (172 MiB as of schema v6) and would silently tighten a
#: relative gate.  Override alongside REPRO_BENCH_MEMORY_SCALE when
#: benchmarking a different population multiple.
MEMORY_BUDGET_MIB = float(os.environ.get("REPRO_BENCH_MEMORY_BUDGET_MIB", "544"))

#: Repetitions of the scale-1.0 campaign timing; the best run feeds the
#: throughput entry and the regression guard (noise — a busy runner, a
#: heap fragmented by earlier suite tests — only ever slows a run down).
CAMPAIGN_REPETITIONS = 3

#: Allowed relative slowdown of a publish round with a no-op FaultPlan
#: attached (the disabled-fault path must stay on the fast path).
FAULT_OVERHEAD_TOLERANCE = 0.05

#: Allowed relative drop of peer-days/sec vs the committed baseline.
REGRESSION_TOLERANCE = 0.20

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_BENCH_PATH = os.path.join(_REPO_ROOT, "BENCH_campaign.json")
_RECORD_PATH = os.path.join(_REPO_ROOT, ".benchmarks", "BENCH_campaign.json")


def _previous_payload():
    """The *committed* benchmark baseline.

    Read from git so repeated local runs compare against the same floor
    even when the working copy was edited; falls back to the on-disk file
    outside a git checkout.
    """
    import subprocess

    try:
        blob = subprocess.run(
            ["git", "show", "HEAD:BENCH_campaign.json"],
            cwd=_REPO_ROOT,
            capture_output=True,
            timeout=10,
        )
        if blob.returncode == 0:
            return json.loads(blob.stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    try:
        with open(_BENCH_PATH) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def _bench_campaign():
    wall = None
    for _ in range(CAMPAIGN_REPETITIONS):
        reset_snapshot_allocations()
        start = time.perf_counter()
        result = run_main_campaign(
            days=BENCH_DAYS,
            scale=BENCH_SCALE,
            seed=2018,
            collect_daily_ips=True,
            include_victim_client=True,
            engine=ExposureEngine(),  # cold: measures the uncached path
        )
        elapsed = time.perf_counter() - start
        wall = elapsed if wall is None else min(wall, elapsed)
    peer_days = int(sum(result.daily_online_population))
    acc_now, acc_peak = result.log.accumulator_memory_bytes()
    return {
        "campaign_days": result.log.days_recorded,
        "campaign_scale": BENCH_SCALE,
        "campaign_wall_seconds": round(wall, 3),
        "campaign_mean_daily_online": round(result.mean_daily_online, 1),
        "campaign_peer_days": peer_days,
        "campaign_peer_days_per_second": round(peer_days / wall, 1),
        "campaign_unique_peers": result.log.unique_peer_count,
        "snapshot_allocations": snapshot_allocations(),
        # Memory telemetry: the observation log's accumulator arrays (the
        # streamed-analysis working set) and the process-wide peak RSS.
        # ru_maxrss is KiB on Linux but bytes on macOS — normalise to KiB.
        "accumulator_bytes": acc_now,
        "accumulator_peak_bytes": acc_peak,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        // (1024 if sys.platform == "darwin" else 1),
        "exposure_backend": "in_memory",
    }


def _run_memory_budget(extra_args):
    """One campaign in a fresh subprocess via ``repro.memory_budget``."""
    import subprocess

    command = [
        sys.executable,
        "-m",
        "repro.memory_budget",
        "--days",
        str(BENCH_DAYS),
        "--seed",
        "2018",
        *extra_args,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        command, capture_output=True, text=True, env=env, timeout=1800
    )
    assert completed.returncode == 0, (
        f"memory-budget run {' '.join(extra_args)} failed:\n"
        f"{completed.stdout}\n{completed.stderr}"
    )
    return json.loads(completed.stdout)


def _bench_memory_budget(tmp_dir):
    reference = _run_memory_budget(
        ["--scale", "1.0", "--backend", "in-memory"]
    )
    ooc_full_scale = _run_memory_budget(
        [
            "--scale",
            "1.0",
            "--backend",
            "out-of-core",
            "--cache-dir",
            os.path.join(tmp_dir, "scale1"),
        ]
    )
    ooc_large = _run_memory_budget(
        [
            "--scale",
            str(MEMORY_BUDGET_SCALE),
            "--backend",
            "out-of-core",
            "--cache-dir",
            os.path.join(tmp_dir, "large"),
        ]
    )
    return {
        "memory_budget": {
            "reference_in_memory": reference,
            "out_of_core_scale1": ooc_full_scale,
            "out_of_core_large": ooc_large,
            "budget_mib": MEMORY_BUDGET_MIB,
        }
    }


def _bench_figure_suite():
    """The whole figure pipeline off one shared exposure, plus warm re-runs."""
    from repro.core.campaign import bandwidth_sweep, router_count_sweep

    start = time.perf_counter()
    suite = run_figure_suite(days=BENCH_DAYS, scale=BENCH_SCALE, seed=2018)
    suite_wall = time.perf_counter() - start

    # The two sweeps again, against the warm engine: pure cache hits.
    start = time.perf_counter()
    bandwidth_sweep(
        days=3, scale=BENCH_SCALE, seed=2018, engine=suite.engine,
        horizon_days=BENCH_DAYS,
    )
    router_count_sweep(
        days=5, scale=BENCH_SCALE, seed=2018, engine=suite.engine,
        horizon_days=BENCH_DAYS,
    )
    two_sweep_wall = time.perf_counter() - start

    log = suite.campaign.log
    start = time.perf_counter()
    longevity(log, thresholds=(3, 7))
    longevity_wall = time.perf_counter() - start
    start = time.perf_counter()
    ip_churn(log)
    ip_churn_wall = time.perf_counter() - start

    return {
        "figure_suite_wall_seconds": round(suite_wall, 3),
        "cached_two_sweep_wall_seconds": round(two_sweep_wall, 3),
        "columnar_longevity_seconds": round(longevity_wall, 4),
        "columnar_ip_churn_seconds": round(ip_churn_wall, 4),
    }


#: Batch size of the enrichment lookup benchmark and repetitions per
#: provider (best-of, like the campaign timing: noise only slows runs).
ENRICHMENT_BATCH = 1_000_000
ENRICHMENT_REPETITIONS = 3

#: Hard floor on batched range-DB lookups (the PR 9 acceptance bar).
ENRICHMENT_MIN_LOOKUPS_PER_SECOND = 1_000_000


def _bench_enrichment(tmp_dir):
    """Batched geo/ASN lookups: synthetic registry vs compiled range DB.

    Both providers resolve the same one million uniformly random IPv4
    addresses through their vectorised ``resolve_ints`` path; the answers
    must agree element-for-element (the cross-provider equivalence the
    enrichment plane promises).
    """
    import numpy as np

    from repro.enrichment import (
        RangeDbProvider,
        SyntheticProvider,
        compile_range_db,
        rows_from_registry,
    )
    from repro.sim.geo import default_registry

    registry = default_registry()
    synthetic = SyntheticProvider(registry)
    db_path = os.path.join(tmp_dir, "bench_geo.db")
    compile_range_db(rows_from_registry(registry), db_path)
    range_db = RangeDbProvider(db_path)

    rng = np.random.default_rng(2018)
    addrs = rng.integers(0, 2**32, size=ENRICHMENT_BATCH, dtype=np.uint32)

    def best_rate(provider):
        wall = None
        answers = None
        for _ in range(ENRICHMENT_REPETITIONS):
            start = time.perf_counter()
            answers = provider.resolve_ints(addrs)
            elapsed = time.perf_counter() - start
            wall = elapsed if wall is None else min(wall, elapsed)
        return answers, addrs.size / wall

    synthetic_answers, synthetic_rate = best_rate(synthetic)
    range_db_answers, range_db_rate = best_rate(range_db)
    assert np.array_equal(synthetic_answers, range_db_answers), (
        "synthetic and range-DB providers disagree on batched lookups"
    )

    range_db.close()
    return {
        "enrichment": {
            "batch_size": ENRICHMENT_BATCH,
            "synthetic_lookups_per_second": round(synthetic_rate, 1),
            "range_db_lookups_per_second": round(range_db_rate, 1),
        }
    }


#: Hard floor on the campaign service's grid-vs-standalone speedup: a
#: four-job, one-digest grid amortises its shared exposure build, so even
#: with queue/persist overhead it must beat four cold standalone runs by
#: a wide margin.  The ratio compares two timings from the same process on
#: the same machine, so unlike the wall-clock ceilings it is not
#: hardware-relative.
GRID_SPEEDUP_FLOOR = 1.5


def _bench_campaign_service(tmp_dir):
    """A digest-grouped 4-job grid vs the same jobs run standalone.

    The grid side goes through the full service stack — planner, SQLite
    queue claims, result-store persistence, telemetry — with one in-memory
    exposure engine; the standalone side calls ``run_scenario`` four times
    with a cold engine each (what a user scripting ``repro run`` in a loop
    would pay).  Telemetry proves the grid built its ``SharedExposure``
    exactly once.
    """
    from repro.core import run_scenario
    from repro.service import (
        GridAxis,
        GridSpec,
        JobQueue,
        Telemetry,
        execute_grid,
        plan_grid,
        read_events,
    )

    spec = GridSpec(
        scenario="monitor_fraction_sweep",
        axes=(
            GridAxis(
                "params.fractions",
                ((0.2, 0.5), (0.3, 0.6), (0.4, 0.8), (0.5, 1.0)),
            ),
        ),
        scale=BENCH_SCALE,
        seed=2018,
        days=BENCH_DAYS,
    )
    plan = plan_grid(spec)
    assert len(plan.shared_digests) == 1  # the whole grid shares one build
    db_path = os.path.join(tmp_dir, "bench_service.sqlite")
    trace_path = os.path.join(tmp_dir, "bench_service.telemetry.jsonl")
    with JobQueue(db_path) as queue:
        queue.enqueue_plan(plan)
    start = time.perf_counter()
    with Telemetry(trace_path) as telemetry:
        outcome = execute_grid(
            db_path, plan.grid_id, ExposureEngine, telemetry=telemetry
        )
    grid_wall = time.perf_counter() - start
    assert outcome.done == len(plan.jobs)
    builds = sum(
        int(record["builds"])
        for record in read_events(trace_path)
        if record.get("name") == "exposure.cache"
    )

    standalone_wall = 0.0
    for job in plan.jobs:
        start = time.perf_counter()
        run_scenario(
            job.resolved_spec(),
            scale=job.scale,
            seed=job.seed,
            engine=ExposureEngine(),  # cold: each run pays the full build
        )
        standalone_wall += time.perf_counter() - start

    in_job = sum(outcome.job_wall_seconds.values())
    overhead_per_job = max(0.0, grid_wall - in_job) / len(plan.jobs)
    return {
        "campaign_service": {
            "grid_jobs": len(plan.jobs),
            "grid_exposure_builds": builds,
            "grid_wall_seconds": round(grid_wall, 3),
            "standalone_wall_seconds": round(standalone_wall, 3),
            "grid_speedup": round(standalone_wall / grid_wall, 3),
            "queue_overhead_seconds_per_job": round(overhead_per_job, 4),
        }
    }


def _netdb_counts():
    """The throughput curve's router-count axis (env-overridable)."""
    raw = os.environ.get("REPRO_BENCH_NETDB_COUNTS", "")
    if not raw.strip():
        return DEFAULT_ROUTER_COUNTS
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _bench_network():
    """Steady-state netDb publish throughput across network sizes.

    The 300-router entry feeds the regression guard, and its rounds take
    ~1ms each — a single scheduler hiccup during the nine measured
    rounds reads as a double-digit "regression".  That entry keeps the
    best of three repetitions (noise only ever slows a run down); the
    larger, unguarded points stay single-shot.
    """
    curve = []
    for router_count in _netdb_counts():
        repetitions = 3 if router_count == 300 else 1
        point = None
        for _ in range(repetitions):
            sample = measure_netdb_scale(router_count, seed=2018)
            if point is None or sample.messages_per_second > point.messages_per_second:
                point = sample
        entry = point.as_dict()
        entry["messages_per_second"] = round(entry["messages_per_second"], 1)
        entry["median_round_seconds"] = round(entry["median_round_seconds"], 5)
        curve.append(entry)
    return {"network_curve": curve}


def _bench_fault_overhead():
    """Publish round time at 300 routers: all-zero FaultPlan vs no plan.

    The quantity under test is a ratio of two ~1ms timings, where a
    stray scheduler hiccup reads as several percent, so the estimator is
    deliberately sturdier than the throughput curve's: three alternating
    repetitions per side (alternation cancels slow machine-wide drift)
    and the *minimum* of the per-repetition medians (real overhead slows
    the best case too; noise only ever slows a run down).
    """
    from repro.sim.faults import FaultPlan

    base_medians = []
    zero_plan_medians = []
    for _ in range(3):
        base_medians.append(
            measure_netdb_scale(300, seed=2018, measure_rounds=9).median_round_seconds
        )
        zero_plan_medians.append(
            measure_netdb_scale(
                300, seed=2018, measure_rounds=9, fault_plan=FaultPlan()
            ).median_round_seconds
        )
    base = min(base_medians)
    zero_plan = min(zero_plan_medians)
    return {
        "network_fault_base_seconds": round(base, 5),
        "network_fault_zero_plan_seconds": round(zero_plan, 5),
        "network_fault_overhead_ratio": round(
            zero_plan / base if base > 0 else 1.0, 4
        ),
    }


def test_perf_budget(tmp_path):
    previous = _previous_payload()
    payload = {
        "generated_by": "benchmarks/test_perf_budget.py",
        "schema_version": SCHEMA_VERSION,
    }
    # Memory-budget subprocesses run FIRST: a forked/spawned child counts
    # the parent's resident pages toward its own ru_maxrss until exec, so
    # spawning from a post-campaign pytest process (~0.5 GiB) would floor
    # every child's "peak" at the parent's size.
    payload.update(_bench_memory_budget(str(tmp_path)))
    payload.update(_bench_campaign())
    payload.update(_bench_enrichment(str(tmp_path)))
    payload.update(_bench_figure_suite())
    payload.update(_bench_campaign_service(str(tmp_path)))
    payload.update(_bench_network())
    payload.update(_bench_fault_overhead())
    payload["figure_suite_to_campaign_ratio"] = round(
        payload["figure_suite_wall_seconds"] / payload["campaign_wall_seconds"], 3
    )
    print(json.dumps(payload, indent=2, sort_keys=True))

    # The columnar hot path must not materialise a single snapshot.
    assert payload["snapshot_allocations"] == 0
    # Memory telemetry must be live (Linux reports ru_maxrss in KiB).
    assert payload["accumulator_peak_bytes"] >= payload["accumulator_bytes"] > 0
    assert payload["peak_rss_kib"] > 0
    # Generous wall-clock ceiling: the row-oriented engine needed ~12s for
    # this configuration; the columnar engine runs it in a few seconds.
    assert payload["campaign_wall_seconds"] < 60.0
    assert payload["campaign_peer_days_per_second"] > 10_000
    # The throughput curve must cover at least three network sizes by
    # default, with live numbers at every point.
    curve = payload["network_curve"]
    assert len(curve) >= (3 if not os.environ.get("REPRO_BENCH_NETDB_COUNTS") else 1)
    assert all(point["messages_per_second"] > 100 for point in curve)

    # Shared-exposure headline: the whole figure suite costs at most 1.5×
    # one campaign, and warm sweeps are a small fraction of a campaign.
    assert payload["figure_suite_to_campaign_ratio"] <= 1.5
    assert (
        payload["cached_two_sweep_wall_seconds"]
        < payload["campaign_wall_seconds"]
    )

    # Regression guard against the committed trajectory (>20% is a failure,
    # not a warning; best-of-{CAMPAIGN_REPETITIONS} keeps it off the noise
    # floor).  Hardware-relative, so runs on machines unrelated to the one
    # that committed the baseline (e.g. shared CI runners) may opt out;
    # the dedicated benchmark job and local development keep it on.
    skip_guard = bool(os.environ.get("REPRO_BENCH_SKIP_REGRESSION_GUARD"))
    baseline = None if skip_guard else previous.get("campaign_peer_days_per_second")
    if baseline:
        floor = (1.0 - REGRESSION_TOLERANCE) * float(baseline)
        assert payload["campaign_peer_days_per_second"] >= floor, (
            f"in-memory campaign throughput regressed more than "
            f"{REGRESSION_TOLERANCE:.0%}: "
            f"{payload['campaign_peer_days_per_second']}"
            f" peer-days/s vs committed {baseline} (floor {floor:.1f})"
        )

    # The same guard on the 300-router netDb throughput entry.  A schema-v4
    # baseline carries the curve; a v3 baseline's single-point number was a
    # cold convergence round (publish + exploration), which steady-state
    # publish throughput dominates, so comparing against it stays sound.
    current_300 = next(
        (p["messages_per_second"] for p in curve if p["router_count"] == 300), None
    )
    baseline_300 = None
    if not skip_guard:
        for point in previous.get("network_curve", ()):
            if point.get("router_count") == 300:
                baseline_300 = point.get("messages_per_second")
        if baseline_300 is None:
            baseline_300 = previous.get("network_messages_per_second")
    if baseline_300 and current_300 is not None:
        floor = (1.0 - REGRESSION_TOLERANCE) * float(baseline_300)
        assert current_300 >= floor, (
            f"netDb publish throughput (300 routers) regressed more than "
            f"{REGRESSION_TOLERANCE:.0%}: {current_300} msgs/s vs committed "
            f"{baseline_300} (floor {floor:.1f})"
        )

    # Enrichment plane: the batched range-DB path must stay above the hard
    # 1M lookups/sec floor (machine-independent by a wide margin — the
    # vectorised searchsorted path runs tens of millions per second), and
    # throughput joins the same hardware-relative regression guard as the
    # campaign numbers.
    enrichment = payload["enrichment"]
    assert (
        enrichment["range_db_lookups_per_second"]
        >= ENRICHMENT_MIN_LOOKUPS_PER_SECOND
    ), (
        f"batched range-DB lookups fell below the "
        f"{ENRICHMENT_MIN_LOOKUPS_PER_SECOND:,}/s floor: "
        f"{enrichment['range_db_lookups_per_second']:,.0f}/s"
    )
    baseline_enrichment = (
        None
        if skip_guard
        else previous.get("enrichment", {}).get("range_db_lookups_per_second")
    )
    if baseline_enrichment:
        floor = (1.0 - REGRESSION_TOLERANCE) * float(baseline_enrichment)
        assert enrichment["range_db_lookups_per_second"] >= floor, (
            f"batched range-DB lookup throughput regressed more than "
            f"{REGRESSION_TOLERANCE:.0%}: "
            f"{enrichment['range_db_lookups_per_second']:,.0f}/s vs committed "
            f"{baseline_enrichment:,.0f}/s (floor {floor:,.0f}/s)"
        )

    # Campaign service: the digest-grouped grid must have built its shared
    # exposure exactly once and beaten four cold standalone runs by the
    # hard floor.  The speedup is a same-machine ratio, so the floor holds
    # everywhere; the trajectory additionally joins the regression guard.
    service = payload["campaign_service"]
    assert service["grid_exposure_builds"] == 1, (
        f"the one-digest grid built its SharedExposure "
        f"{service['grid_exposure_builds']} times instead of once"
    )
    assert service["grid_speedup"] >= GRID_SPEEDUP_FLOOR, (
        f"grid run sped up standalone runs only "
        f"{service['grid_speedup']:.2f}x (floor {GRID_SPEEDUP_FLOOR:.1f}x) — "
        f"the queue/persist overhead is eating the shared-exposure win"
    )
    baseline_speedup = (
        None if skip_guard else previous.get("campaign_service", {}).get("grid_speedup")
    )
    if baseline_speedup:
        floor = (1.0 - REGRESSION_TOLERANCE) * float(baseline_speedup)
        assert service["grid_speedup"] >= floor, (
            f"campaign-service grid speedup regressed more than "
            f"{REGRESSION_TOLERANCE:.0%}: {service['grid_speedup']:.2f}x vs "
            f"committed {baseline_speedup:.2f}x (floor {floor:.2f}x)"
        )

    # A network with a no-op FaultPlan attached must publish as fast as one
    # that never attached a plan.  Timing-sensitive like the guards above,
    # so it honours the same opt-out for shared CI runners.
    if not skip_guard:
        ratio = payload["network_fault_overhead_ratio"]
        assert ratio < 1.0 + FAULT_OVERHEAD_TOLERANCE, (
            f"disabled-fault publish path costs {ratio:.3f}x the plain path "
            f"(budget {1.0 + FAULT_OVERHEAD_TOLERANCE:.2f}x) — the zero-fault "
            f"plane is no longer free"
        )

    # Out-of-core acceptance.  Byte identity first: restoring the exposure
    # from a sharded bundle must reproduce the in-memory campaign summary
    # bit for bit at full scale.
    budget = payload["memory_budget"]
    assert (
        budget["out_of_core_scale1"]["summary_sha256"]
        == budget["reference_in_memory"]["summary_sha256"]
    ), "out-of-core scale-1.0 campaign summary diverged from the in-memory run"
    # Memory gate: the large out-of-core campaign (10x the paper's
    # population by default) must peak below the fixed MEMORY_BUDGET_MIB
    # ceiling — the streamed windows, not the population multiple, bound
    # the working set (an in-memory run at the same scale peaks ~1140 MiB).
    large_peak = budget["out_of_core_large"]["peak_rss_kib"]
    assert large_peak < MEMORY_BUDGET_MIB * 1024, (
        f"scale-{MEMORY_BUDGET_SCALE:g} out-of-core campaign peaked at "
        f"{large_peak / 1024:.0f} MiB, over the {MEMORY_BUDGET_MIB:.0f} MiB "
        f"budget"
    )
    # And the large run must still be making real progress, not thrashing.
    assert budget["out_of_core_large"]["peer_days_per_second"] > 10_000

    # Record only after every assertion passed.  The record never replaces
    # the committed baseline, so a re-run cannot ratchet the regression
    # guard to whatever this run measured.
    os.makedirs(os.path.dirname(_RECORD_PATH), exist_ok=True)
    with open(_RECORD_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
