"""One benchmark pass, run by ``run.py`` in a fresh process.

    python3 perfbench/passes.py WORKLOAD SEED TRACED SPAWNED_AT WORKDIR TRACE_FILE

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so set-up time counts from the
process's start.  The pass imports the program from the checkout's own
``src/``, times the workload's public calls, checks the outputs, removes
its private cache directory and prints one JSON object as its last line.
A traced pass makes the same calls one at a time inside spans and writes
them to ``TRACE_FILE``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import speed

SAMPLER = speed.SpeedSampler()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The paper's full population (~30.5K daily peers).
SCALE = 1.0
#: Campaign horizon.  Longer than 10 days so Figure 13's 20- and 30-day
#: blacklist windows differ from the 10-day one.
CAMPAIGN_DAYS = 12
#: Figure-13 points recomputed per pass, drawn from the seed.
FIGURE13_POINTS = 6
#: netDb size and shape (10% floodfills, as ``measure_netdb_scale`` uses).
NETDB_ROUTERS = 4000
FLOODFILL_FRACTION = 0.1
CONVERGENCE_ROUNDS = 3
#: Publish rounds: the warm-up and then the replay steady state.
PUBLISH_ROUNDS = 12
#: Iterative RouterInfo lookups between seeded (requester, key) pairs, with
#: the program's default iteration budget.
LOOKUPS = 6000
#: Seed of the netDb, its publish rounds and its lookups, whatever the
#: workload seed.  With the default budget, 0 to 3 of a network's 6000
#: lookups return nothing, depending on the seed (6 of 12 seeds tried had
#: one or more), so a seeded network would fail a different share of
#: operations in every run.  On this network one lookup fails, in every
#: pass; it is counted as a failed operation.
NETDB_SEED = 1
#: Routers whose closest known floodfill is checked, drawn from the
#: workload seed.
ROUTING_SAMPLE = 200


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """Spans around public calls, kept in memory until the pass ends."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self._open: List[str] = []

    @contextlib.contextmanager
    def span(self, name: str, start: Optional[float] = None):
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.monotonic() if start is None else start,
        }
        self._open.append(name)
        try:
            yield
        finally:
            record["end"] = time.monotonic()
            record["rss_mib"] = peak_rss_mib()
            self._open.pop()
            self.records.append(record)

    def wrap(self, name: str, function):
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced


class NullSpans:
    """The untraced pass: no records."""

    @contextlib.contextmanager
    def span(self, name: str, start: Optional[float] = None):  # noqa: ARG002
        yield


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {error}")
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        sys.exit(f"perfbench: repro was imported from {location}, not from {SRC}")


def result_digest(out) -> str:
    """SHA-256 of a scenario result's figures, summaries and tables."""
    payload = {
        "summaries": out.summaries,
        "tables": out.tables,
        "figures": {
            figure_id: {
                "labels": [figure.title, figure.x_label, figure.y_label],
                "notes": figure.notes,
                "series": {name: s.points for name, s in figure.series.items()},
            }
            for figure_id, figure in out.figures.items()
        },
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Campaign workloads
# --------------------------------------------------------------------------- #
def campaign_pass(backend: str, seed: int, spans, cache_dir: str) -> Dict[str, object]:
    from repro.core.campaign import (
        CampaignConfig,
        MeasurementCampaign,
        campaign_observation_seed,
        scaled_population_config,
    )
    from repro.core.scenario import (
        ANALYSES,
        ScenarioResult,
        resolve_scenario,
        run_scenario,
        scenario_exposure_digest,
    )
    from repro.sim import exposure_cache
    from repro.sim.exposure import ExposureEngine

    traced = isinstance(spans, Spans)
    begin = time.monotonic()
    if not traced:
        engine = ExposureEngine(cache_dir=cache_dir, backend=backend)
        out = run_scenario(
            "main_campaign", scale=SCALE, seed=seed, days=CAMPAIGN_DAYS, engine=engine
        )
        engine.flush()
        result = out.campaign
    else:
        # The calls run_scenario makes, one span each.
        spec = resolve_scenario("main_campaign", days=CAMPAIGN_DAYS)
        config = CampaignConfig(
            population=scaled_population_config(SCALE, days=CAMPAIGN_DAYS, seed=seed),
            monitors=spec.fleet.monitors(),
            days=CAMPAIGN_DAYS,
            seed=seed,
            collect_daily_ips=spec.collect_daily_ips,
            include_victim_client=spec.include_victim,
        )
        with spans.span("exposure.get"):
            engine = ExposureEngine(cache_dir=cache_dir, backend=backend)
            exposure = engine.get(config.population, campaign_observation_seed(seed))
        with spans.span("exposure.days"):
            exposure.ensure_days(CAMPAIGN_DAYS)
        with spans.span("campaign.observe"):
            # The campaign prefetches masks itself (per shard out of core).
            exposure.prefetch_masks = spans.wrap("exposure.masks", exposure.prefetch_masks)
            result = MeasurementCampaign(config, engine=engine).run()
            del exposure.prefetch_masks
        out = ScenarioResult(
            spec=spec,
            scale=SCALE,
            seed=seed,
            engine=engine,
            exposure_digest=scenario_exposure_digest(spec, scale=SCALE, seed=seed),
        )
        out.campaign = result
        for name in spec.analyses:
            with spans.span(f"analysis.{name}"):
                ANALYSES[name](result, out)
        with spans.span("cache.flush"):
            engine.flush()
    end = time.monotonic()
    rss = peak_rss_mib()

    config = result.config
    with spans.span("check"):
        observation_seed = campaign_observation_seed(seed)
        exposure = engine.get(config.population, observation_seed, days=CAMPAIGN_DAYS)
        problems = check_campaign(out, exposure, seed)
        bundle = exposure_cache.cache_path(cache_dir, config.population, observation_seed)
        counters = {
            "cache.bundle_mib": exposure_cache.bundle_size(bundle) / 2**20,
            "exposure.builds": engine.misses,
            "exposure.disk_hits": engine.disk_hits,
            "campaign.peer_days": int(sum(result.daily_online_population)),
            "campaign.unique_peers": int(result.log.unique_peer_count),
        }
        digest = result_digest(out)
    return {
        "timed": [(begin, end)],
        "peak_rss_mib": rss,
        "digest": digest,
        "attempted": 1,
        "failed": 1 if problems else 0,
        "problems": problems,
        "failures": [],
        "counters": counters,
    }


def check_campaign(out, exposure, seed: int) -> List[str]:
    """Figure 13's shape, and its points at seeded (routers, window) pairs
    against :func:`recompute_figure13`."""
    series = {name: list(s.points) for name, s in out.figures["figure_13"].series.items()}
    problems = checks.check_figure13_shape(series)
    config = out.campaign.config
    windows = sorted(checks.series_window(name) for name in series)
    rng = random.Random(seed)
    pairs = {
        (rng.randint(1, len(config.monitors)), rng.choice(windows))
        for _ in range(FIGURE13_POINTS)
    }
    return problems + checks.check_figure13_points(
        series, recompute_figure13(exposure, config, pairs)
    )


def victim_spec(config):
    from repro.sim.observation import MonitorMode, MonitorSpec

    return MonitorSpec("victim-client", MonitorMode.CLIENT, config.victim_bandwidth_kbps)


def observed_addresses(exposure, needed: Dict[int, set]) -> Dict[tuple, set]:
    """``(monitor, day) -> addresses`` straight from the exposure's day
    columns and masks, for the monitors ``needed[day]``.  Each day is
    decoded once (a disk-backed exposure keeps only a few)."""
    observed = {}
    for day, specs in sorted(needed.items()):
        columns = exposure.view(day).columns
        for spec in specs:
            selected = exposure.monitor_day_mask(spec, day) & columns.valid_ip
            ips = set(columns.ip[selected].tolist())
            ips.update(columns.ipv6[selected].tolist())
            ips.discard(None)
            observed[spec, day] = ips
    return observed


def recompute_figure13(exposure, config, pairs) -> Dict[tuple, float]:
    """Figure-13 rates at ``(routers, window)`` pairs, bypassing
    MonitoringRouter, DailyIpSets and blocking_curve."""
    censors, victim = list(config.monitors), victim_spec(config)
    evaluation_day = config.days - 1
    needed: Dict[int, set] = {}
    for routers, window in pairs:
        for day in range(max(0, evaluation_day - window + 1), evaluation_day + 1):
            needed.setdefault(day, set()).update(censors[:routers])
    first_victim_day = max(0, evaluation_day - checks.VICTIM_HISTORY_DAYS + 1)
    for day in range(first_victim_day, evaluation_day + 1):
        needed.setdefault(day, set()).add(victim)
    observed = observed_addresses(exposure, needed)
    return {
        (routers, window): checks.figure13_rate(
            lambda spec, day: observed[spec, day],
            censors[:routers],
            victim,
            evaluation_day,
            window,
        )
        for routers, window in pairs
    }


# --------------------------------------------------------------------------- #
# netDb workload
# --------------------------------------------------------------------------- #
def netdb_build(spans):
    from repro.netdb.routerinfo import BandwidthTier
    from repro.sim.network import I2PNetwork

    floodfills = max(1, round(NETDB_ROUTERS * FLOODFILL_FRACTION))
    with spans.span("netdb.build"):
        net = I2PNetwork(seed=NETDB_SEED)
        for _ in range(floodfills):
            net.add_router(floodfill=True, bandwidth_tier=BandwidthTier.O)
        net.batch_add_routers(NETDB_ROUTERS - floodfills)
    with spans.span("netdb.converge"):
        net.run_convergence_rounds(rounds=CONVERGENCE_ROUNDS)
    return net


def netdb_pass(net, seed: int, spans) -> Dict[str, object]:
    rng = random.Random(NETDB_SEED)
    hashes = list(net.routers)
    pairs = []
    while len(pairs) < LOOKUPS:
        requester, key = rng.choice(hashes), rng.choice(hashes)
        if requester != key:
            pairs.append((requester, key))
    before = dict(net.plane_stats)

    publish_begin = time.monotonic()
    messages = 0
    with spans.span("netdb.publish"):
        for _ in range(PUBLISH_ROUNDS):
            net.step_hours(0.25)
            messages += net.publish_all()
    publish_end = time.monotonic()

    with spans.span("check"):
        # Untimed: a lookup teaches its requester new floodfills, so the
        # floodfills each router published to are read before any lookup.
        problems: List[str] = []
        for router in random.Random(seed).sample(hashes, ROUTING_SAMPLE):
            known = [h for h in net.routers[router].known_floodfills if h in net.routers]
            problems += checks.check_closest_floodfill(
                router,
                known,
                lambda floodfill, entry: net.routers[floodfill].store.get_routerinfo(entry)
                is not None,
                net.clock.now,
            )

    lookup_begin = time.monotonic()
    with spans.span("netdb.lookup"):
        answers = [net.lookup_routerinfo(requester, key) for requester, key in pairs]
    lookup_end = time.monotonic()
    rss = peak_rss_mib()

    with spans.span("check"):
        # A lookup that returns nothing has failed; one that returns another
        # router's RouterInfo is a wrong result.
        failures = [
            f"lookup of {key.hex()[:12]} by {requester.hex()[:12]} returned nothing"
            for (requester, key), info in zip(pairs, answers)
            if info is None
        ]
        for (_, key), info in zip(pairs, answers):
            problems += checks.check_lookup(key, info)
        if messages <= 0:
            problems.append("publish rounds delivered no messages")
        stats = net.plane_stats
        counters = {
            "netdb.publish_msgs": messages,
            "netdb.replay_share": (stats["replay_rounds"] - before["replay_rounds"])
            / PUBLISH_ROUNDS,
            "netdb.ff_view_rebuilds": stats["ff_view_rebuilds"] - before["ff_view_rebuilds"],
            "netdb.flood_table_rebuilds": stats["flood_table_rebuilds"]
            - before["flood_table_rebuilds"],
            "netdb.lookups": len(pairs),
        }
    return {
        "timed": [(publish_begin, publish_end), (lookup_begin, lookup_end)],
        "peak_rss_mib": rss,
        "digest": None,
        "attempted": PUBLISH_ROUNDS + LOOKUPS,
        "failed": len(failures),
        "problems": problems,
        "failures": failures,
        "counters": counters,
    }


# --------------------------------------------------------------------------- #
def leftovers(cache_dir: Path) -> List[str]:
    """Threads, child processes and half-written bundles (the program's
    ``.exposure-*`` temporary directories in ``cache_dir``) a pass left
    behind.  Call it before the cache directory is removed."""
    found = [f"thread {t.name} still running" for t in threading.enumerate() if t is not threading.main_thread()]
    children = Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
    if children.exists() and children.read_text().strip():
        found.append("child processes still running")
    found += [f"{path} left behind" for path in cache_dir.rglob(".exposure-*")]
    return found


def main(argv: List[str]) -> None:
    SAMPLER.start()
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    spawned_at, workdir, trace_file = float(argv[3]), Path(argv[4]), argv[5]
    spans = Spans() if traced else NullSpans()
    with spans.span("setup", start=spawned_at):
        import_program()
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        net = netdb_build(spans) if workload == "netdb" else None
    first_call = time.monotonic()
    if workload == "netdb":
        outcome = netdb_pass(net, seed, spans)
    else:
        backend = {"campaign-mem": "in_memory", "campaign-ooc": "out_of_core"}[workload]
        outcome = campaign_pass(backend, seed, spans, cache_dir)
    with spans.span("cleanup"):
        net = None
        outcome["problems"] += leftovers(Path(cache_dir))
        shutil.rmtree(cache_dir)
    SAMPLER.stop()

    report = {
        "setup": SAMPLER.measure_all([(spawned_at, first_call)]),
        "run": SAMPLER.measure_all(outcome.pop("timed")),
        **outcome,
    }
    if traced:
        pass_id = Path(trace_file).stem
        report["spans"] = [dict(span, pass_id=pass_id) for span in summarise_spans(spans.records)]
        report["top_level_wall_s"] = sum(
            s["end"] - s["start"] for s in spans.records if s["parent"] is None
        )
        with open(trace_file, "w", encoding="utf-8") as stream:
            json.dump({"pass_id": pass_id, "workload": workload, "seed": seed, "spans": report["spans"]}, stream, indent=1)
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown: it frees the program's heap object by
    # object and is no part of the workload.
    os._exit(0)


def summarise_spans(records: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Each span with raw, corrected and self times (self = minus children)."""
    summary = []
    for record in records:
        timing = SAMPLER.measure(record["start"], record["end"])
        children = [
            other for other in records
            if other["parent"] == record["name"]
            and record["start"] <= other["start"] and other["end"] <= record["end"]
        ]
        child_raw = sum(SAMPLER.measure(c["start"], c["end"])["raw_s"] for c in children)
        child_s = sum(SAMPLER.measure(c["start"], c["end"])["s"] for c in children)
        summary.append({
            **record,
            "raw_s": timing["raw_s"],
            "s": timing["s"],
            "self_raw_s": timing["raw_s"] - child_raw,
            "self_s": timing["s"] - child_s,
            "ref_median_s": timing["ref_median_s"],
        })
    return summary


if __name__ == "__main__":
    main(sys.argv[1:])
