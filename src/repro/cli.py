"""Command-line interface for the I2P measurement reproduction.

Every experiment is a registered scenario, run one at a time with
``repro run`` or as a grid with ``repro grid``:

``repro scenarios``
    List every registered scenario spec with a one-line description.

``repro run <scenario>``
    Execute any registered scenario through the declarative engine and
    print its figures, tables and summaries; ``--export-dir`` also writes
    every figure as CSV and JSON.  The paper's results are
    ``main_campaign`` (Section 5, Figures 5–13), ``figure_suite``
    (Section 4's Figures 2–4 plus the campaign) and ``usability``
    (Section 6.2.3, Figure 14).

``repro cache ls|clear``
    Inspect / empty the on-disk exposure cache (sharded mmap-friendly
    bundles) that lets repeated CLI runs reuse paper-scale populations
    across processes.  ``ls --json`` emits machine-readable output.

``repro geo build-db|lookup``
    The enrichment plane's tooling: compile a CSV/JSON range table into
    the binary sorted-range geo database, and resolve one address through
    the active provider.

``repro grid plan|run|resume``
    The campaign service: expand a registered scenario times axes of
    overrides (``--axis days=5,10 --axis params.fractions=0.2:0.5,0.3:0.9``)
    into a persistent job queue, grouped by exposure digest so every job
    sharing a population streams from ONE ``SharedExposure`` build; run
    it, interrupt it, resume it — finished jobs are never re-executed,
    failed jobs retry up to their budget then park in the dead-letter
    table.  State lives in one SQLite file (``--service-db`` /
    ``$REPRO_SERVICE_DB``).

``repro jobs ls``
    Queue state per job (pending/running/done/failed + attempts), plus
    the dead-letter table with each poison job's traceback.

``repro results ls|show|export``
    The durable result store: per-run scalar summaries and figure series,
    content-addressed and deduplicated.  ``export`` emits canonical JSON
    whose bytes depend only on what was computed — never on execution
    order, retries, or interrupts.

Every analysis resolves geography through the pluggable enrichment
provider: ``--geo-provider synthetic`` (default, the calibrated registry)
or ``--geo-provider range-db --geo-db PATH`` (a compiled database; also
``REPRO_GEO_PROVIDER`` / ``REPRO_GEO_DB``).

Every campaign-running command consults the exposure cache directory
(``--cache-dir``, the ``REPRO_CACHE_DIR`` environment variable, or
``~/.cache/repro/exposure`` by default; ``--no-cache`` disables), so a
second run of the same scenario skips the population rebuild entirely.
``--exposure-backend out-of-core`` streams cache misses straight to a
disk bundle instead of materialising the whole day range in RAM (the
backend for 10-100x paper-scale campaigns); ``--cache-max-bytes``
bounds the cache directory with LRU eviction.

Installed as the ``repro`` console script (see ``pyproject.toml``), and also
runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

from .analysis.export import write_figure_csv, write_figure_json
from .analysis.series import FigureData
from .analysis.tables import format_kv
from .core import list_scenarios, render_figure, run_scenario
from .core.scenario import ScenarioResult
from .sim import ExposureEngine
from .sim import exposure_cache

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the IMC'18 I2P measurement & censorship study",
    )
    parser.add_argument("--seed", type=int, default=2018, help="random seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="population scale relative to the paper's ~30.5K daily peers",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="directory for the on-disk exposure cache (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro/exposure)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk exposure cache for this run",
    )
    parser.add_argument(
        "--exposure-backend",
        choices=("in-memory", "out-of-core"),
        default=None,
        help="how cache misses are built: 'in-memory' materialises the whole "
        "day range in RAM, 'out-of-core' streams it to a sharded disk bundle "
        "(bounded peak RSS; needs the cache enabled).  Default: "
        "$REPRO_EXPOSURE_BACKEND or in-memory",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=str,
        default=None,
        metavar="SIZE",
        help="LRU byte budget for the cache directory, e.g. '2G', '500M', "
        "'1.5GiB' (least-recently-used bundles are evicted after each "
        "save).  Default: $REPRO_CACHE_MAX_BYTES or unlimited",
    )
    parser.add_argument(
        "--geo-provider",
        choices=("synthetic", "range-db"),
        default=None,
        help="geo/ASN enrichment provider every analysis resolves through "
        "(default: $REPRO_GEO_PROVIDER, or synthetic; range-db needs "
        "--geo-db)",
    )
    parser.add_argument(
        "--geo-db",
        type=Path,
        default=None,
        metavar="PATH",
        help="compiled sorted-range geo database for --geo-provider range-db "
        "(default: $REPRO_GEO_DB; build one with `repro geo build-db`)",
    )
    parser.add_argument(
        "--service-db",
        type=Path,
        default=None,
        metavar="PATH",
        help="SQLite file holding the campaign service's job queue + result "
        "store (default: $REPRO_SERVICE_DB or service.sqlite next to the "
        "exposure cache)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "scenarios", help="list every registered scenario spec"
    )

    run = subparsers.add_parser(
        "run",
        help="execute one registered scenario through the engine",
        description="Execute one registered scenario through the declarative "
        "engine.  Message-level scenarios accept --router-count to pin the "
        "simulated-network size: netdb-scale sweeps netDb publish throughput "
        "over 300/1000/10000-router networks, and the fault-injection "
        "scenarios (floodfill-takedown, reseed-outage, lossy-network) replay "
        "a deterministic FaultPlan — seeded message drops, floodfill "
        "crash/recover windows, reseed outages, regional link blackouts — "
        "and report per-round publish success, lookup latency and netDb "
        "coverage.  Set REPRO_PROFILE=1 to run the scenario under cProfile "
        "and dump pstats next to the results.",
    )
    run.add_argument("scenario", help="a registered scenario name (see `repro scenarios`)")
    run.add_argument(
        "--days", type=int, default=None, help="override the spec's horizon"
    )
    run.add_argument(
        "--router-count",
        type=int,
        default=None,
        help="simulated-network size for message-level scenarios "
        "(e.g. netdb-scale); rejected for exposure-based scenarios",
    )
    run.add_argument(
        "--export-dir",
        type=Path,
        default=None,
        help="directory to write every figure of the run as CSV and JSON",
    )

    cache = subparsers.add_parser(
        "cache", help="inspect or empty the on-disk exposure cache"
    )
    cache.add_argument("action", choices=("ls", "clear"))
    cache.add_argument(
        "--json",
        action="store_true",
        help="emit `cache ls` output as machine-readable JSON",
    )

    geo = subparsers.add_parser(
        "geo", help="enrichment-plane tooling: compile and query geo databases"
    )
    geo_sub = geo.add_subparsers(dest="geo_action", required=True)
    build_db = geo_sub.add_parser(
        "build-db",
        help="compile a CSV/JSON range table into the binary geo database",
    )
    build_db.add_argument("input", type=Path, help="range table (CSV or JSON)")
    build_db.add_argument("output", type=Path, help="database file to write")
    build_db.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help="input format (default: by file extension)",
    )
    lookup = geo_sub.add_parser(
        "lookup", help="resolve one IP through the active provider"
    )
    lookup.add_argument("ip", help="the address to resolve")
    lookup.add_argument(
        "--json",
        action="store_true",
        help="emit the resolution as machine-readable JSON",
    )

    grid = subparsers.add_parser(
        "grid",
        help="plan and execute scenario grids through the persistent job queue",
    )
    grid_sub = grid.add_subparsers(dest="grid_action", required=True)
    grid_plan = grid_sub.add_parser(
        "plan",
        help="expand a scenario x axes into a digest-grouped job queue",
        description="Expand one registered scenario times axes of overrides "
        "into concrete jobs, grouped by exposure-cache digest so every job "
        "sharing a population builds its SharedExposure once.  Replanning "
        "an identical grid is a no-op; finished jobs keep their state.",
    )
    grid_plan.add_argument(
        "scenario", help="a registered scenario name (see `repro scenarios`)"
    )
    grid_plan.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="KEY=V1,V2",
        help="one sweep dimension: days, scale, seed, or params.<name>; "
        "commas separate points, colons build tuple values "
        "(e.g. params.fractions=0.2:0.5,0.3:0.9); repeatable",
    )
    grid_plan.add_argument(
        "--days", type=int, default=None, help="base day-horizon override"
    )
    grid_plan.add_argument(
        "--retry-budget",
        type=int,
        default=3,
        metavar="N",
        help="attempts before a failing job parks in the dead-letter table",
    )
    grid_plan.add_argument(
        "--json", action="store_true", help="emit the plan as JSON"
    )
    for action, title in (("run", "execute"), ("resume", "resume")):
        sub = grid_sub.add_parser(
            action,
            help=f"{title} a planned grid (claim -> run -> persist, "
            "crash-safe)",
        )
        sub.add_argument(
            "grid_id",
            nargs="?",
            default=None,
            help="grid to execute (default: the most recently planned)",
        )
        sub.add_argument(
            "--max-jobs",
            type=int,
            default=None,
            metavar="N",
            help="stop after claiming this many jobs (the rest stay queued)",
        )
        sub.add_argument(
            "--backoff",
            type=float,
            default=0.5,
            metavar="SECONDS",
            help="retry backoff base (doubles per attempt)",
        )
        sub.add_argument(
            "--telemetry",
            type=Path,
            default=None,
            metavar="PATH",
            help="JSON-lines span/event trace (default: "
            "<service-db>.telemetry.jsonl)",
        )

    jobs = subparsers.add_parser(
        "jobs", help="inspect the job queue and the dead-letter table"
    )
    jobs.add_argument("action", choices=("ls",))
    jobs.add_argument(
        "--grid", default=None, metavar="GRID_ID", help="restrict to one grid"
    )
    jobs.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    results = subparsers.add_parser(
        "results", help="inspect and export the durable result store"
    )
    results_sub = results.add_subparsers(dest="results_action", required=True)
    results_ls = results_sub.add_parser("ls", help="list recorded runs")
    results_ls.add_argument(
        "--grid", default=None, metavar="GRID_ID", help="restrict to one grid"
    )
    results_ls.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    results_show = results_sub.add_parser(
        "show", help="print one run's scalar summaries (and figures with --json)"
    )
    results_show.add_argument(
        "ref", help="run id, unique id prefix, or grid-unique job name"
    )
    results_show.add_argument(
        "--json", action="store_true", help="dump the full run as JSON"
    )
    results_export = results_sub.add_parser(
        "export",
        help="canonical JSON of every run (bytes depend only on results)",
    )
    results_export.add_argument(
        "--grid", default=None, metavar="GRID_ID", help="restrict to one grid"
    )
    results_export.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write to a file instead of stdout",
    )
    return parser


_T = TypeVar("_T")


def resolve_option(
    flag_value: Optional[_T],
    env: str,
    default: Optional[_T] = None,
    parse: Optional[Callable[[str], _T]] = None,
) -> Optional[_T]:
    """One precedence rule for every CLI-flag/env-twin pair.

    An explicit flag wins; otherwise a non-blank environment variable
    (``parse`` converts its string — flags arrive already converted by
    argparse); otherwise the default.  Every twin in this module routes
    through here so the precedence cannot drift per option.
    """
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(env)
    if raw is not None and raw.strip() != "":
        return parse(raw) if parse is not None else raw  # type: ignore[return-value]
    return default


def _resolve_cache_dir(args: argparse.Namespace) -> Optional[Path]:
    """The exposure cache directory this invocation uses (None = disabled)."""
    if args.no_cache:
        return None
    return resolve_option(
        args.cache_dir,
        "REPRO_CACHE_DIR",
        default=Path.home() / ".cache" / "repro" / "exposure",
        parse=Path,
    )


def _resolve_service_db(args: argparse.Namespace) -> Path:
    """The campaign-service SQLite file (queue + result store)."""
    cache_dir = _resolve_cache_dir(args)
    base = cache_dir.parent if cache_dir is not None else (
        Path.home() / ".cache" / "repro"
    )
    resolved = resolve_option(
        args.service_db,
        "REPRO_SERVICE_DB",
        default=base / "service.sqlite",
        parse=Path,
    )
    assert resolved is not None
    return resolved


def _make_engine(args: argparse.Namespace) -> ExposureEngine:
    from .sim.exposure import parse_byte_size

    backend = resolve_option(
        args.exposure_backend, "REPRO_EXPOSURE_BACKEND", default="in-memory"
    )
    max_bytes = resolve_option(
        None
        if args.cache_max_bytes is None
        else parse_byte_size(args.cache_max_bytes, "--cache-max-bytes"),
        "REPRO_CACHE_MAX_BYTES",
        parse=lambda raw: parse_byte_size(raw, "REPRO_CACHE_MAX_BYTES"),
    )
    engine = ExposureEngine(
        cache_dir=_resolve_cache_dir(args), backend=backend, max_bytes=max_bytes
    )
    # Cache writes run off the critical path; main() joins them on exit so
    # an in-process caller (tests, notebooks) sees a settled cache dir.
    args._engine = engine
    return engine


def _export_figures(figures: Sequence[FigureData], export_dir: Path) -> List[Path]:
    written: List[Path] = []
    for figure in figures:
        written.append(write_figure_csv(figure, export_dir / f"{figure.figure_id}.csv"))
        written.append(write_figure_json(figure, export_dir / f"{figure.figure_id}.json"))
    return written


def _cmd_scenarios(args: argparse.Namespace) -> int:
    specs = list_scenarios()
    width = max(len(spec.name) for spec in specs)
    print(f"{len(specs)} registered scenarios:\n")
    for spec in specs:
        print(f"  {spec.name:<{width}}  [{spec.kind}] {spec.description}")
    print(
        "\nrun one with: repro [--scale S] [--seed N] run <scenario> [--days D] "
        "[--router-count N] [--export-dir DIR]\n"
        "fault-injection scenarios replay a seeded FaultPlan (drop_probability, "
        "crash_fraction,\n"
        "reseed_fraction, blackout_region, outage_start_round/outage_end_round, "
        "store/lookup\n"
        "retry budgets) and chart publish success + netDb coverage per round\n"
        "set REPRO_PROFILE=1 to dump a cProfile pstats file for the run"
    )
    return 0


def _print_scenario_result(result: ScenarioResult) -> None:
    spec = result.spec
    print(
        f"scenario {spec.name} [{spec.kind}]: days={spec.days} "
        f"scale={result.scale:g} seed={result.seed}"
    )
    print(spec.description)
    print()
    if "campaign_summary" in result.tables:
        print(result.tables["campaign_summary"])
        print()
    for figure_id in sorted(result.figures):
        print(render_figure(result.figures[figure_id], ".1f"))
        print()
    for name, table in result.tables.items():
        if name == "campaign_summary":
            continue
        print(table)
        print()
    for name, summary in result.summaries.items():
        print(format_kv({str(k): v for k, v in summary.items()}, title=name))
        print()
    engine = result.engine
    if engine is not None:
        print(
            f"exposure cache: {engine.misses} population build(s), "
            f"{engine.hits} cache hit(s), {engine.disk_hits} disk hit(s)"
        )


def _profile_enabled() -> bool:
    value = os.environ.get("REPRO_PROFILE", "")
    return value.strip().lower() not in ("", "0", "false", "no")


def _cmd_run(args: argparse.Namespace) -> int:
    from .core.scenario import resolve_scenario

    # Only resolution/validation errors are usage errors; anything raised
    # during execution is a real failure and keeps its traceback.
    try:
        spec = resolve_scenario(
            args.scenario,
            days=args.days,
            router_count=args.router_count,
            scale=args.scale,
        )
    except (KeyError, ValueError) as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    engine = _make_engine(args)
    if _profile_enabled():
        # Opt-in profiling: REPRO_PROFILE=1 wraps the scenario execution
        # in cProfile and dumps a pstats file (loadable with
        # `python -m pstats` or snakeviz) into $REPRO_PROFILE_DIR or the
        # working directory.
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = run_scenario(spec, scale=args.scale, seed=args.seed, engine=engine)
        finally:
            profiler.disable()
        profile_dir = Path(os.environ.get("REPRO_PROFILE_DIR") or ".")
        profile_dir.mkdir(parents=True, exist_ok=True)
        profile_path = profile_dir / f"repro_profile_{spec.name}.pstats"
        profiler.dump_stats(profile_path)
        stats = pstats.Stats(profiler, stream=sys.stderr).sort_stats("cumulative")
        print(f"profile written to {profile_path}", file=sys.stderr)
        stats.print_stats(15)
    else:
        result = run_scenario(spec, scale=args.scale, seed=args.seed, engine=engine)
    _print_scenario_result(result)
    if args.export_dir is not None:
        figures = [result.figures[figure_id] for figure_id in sorted(result.figures)]
        written = _export_figures(figures, args.export_dir)
        print(f"\nexported {len(written)} files to {args.export_dir}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache_dir = _resolve_cache_dir(args)
    if cache_dir is None:
        print("exposure cache disabled (--no-cache)", file=sys.stderr)
        return 2
    if args.action == "clear":
        removed = exposure_cache.clear_cache(cache_dir)
        print(f"removed {removed} cache entr(y/ies) from {cache_dir}")
        return 0
    entries = exposure_cache.cache_entries(cache_dir)
    total_bytes = sum(int(entry["bytes"]) for entry in entries)
    if getattr(args, "json", False):
        import json as _json

        payload = {
            "cache_dir": str(cache_dir),
            "total_bytes": total_bytes,
            "entries": [
                {key: value for key, value in entry.items() if key != "path"}
                for entry in entries
            ],
        }
        print(_json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 0
    print(
        f"exposure cache at {cache_dir}: {len(entries)} entr(y/ies), "
        f"{exposure_cache.human_bytes(total_bytes)} total (LRU eviction via "
        f"--cache-max-bytes / $REPRO_CACHE_MAX_BYTES; `repro cache clear` "
        f"reclaims everything)"
    )
    for entry in entries:
        size = exposure_cache.human_bytes(int(entry["bytes"]))
        if "error" in entry:
            print(f"  {entry['digest']}  <{entry['error']}>  ({size})")
            continue
        print(
            f"  {entry['digest']}  days={entry['days']} "
            f"shard_days={entry['shard_days']} peers={entry['peers']} "
            f"daily={entry['daily_population']} seed={entry['seed']} "
            f"({size})"
        )
    return 0


def _cmd_geo(args: argparse.Namespace) -> int:
    from .enrichment import (
        compile_range_db,
        get_active_provider,
        ipv4_to_int,
        load_rows,
    )

    if args.geo_action == "build-db":
        try:
            rows = load_rows(args.input, args.format)
            stats = compile_range_db(rows, args.output)
        except (OSError, ValueError) as error:
            print(error.args[0] if error.args else str(error), file=sys.stderr)
            return 2
        print(
            f"compiled {stats['ranges']} range(s) from {stats['source_rows']} "
            f"source row(s) ({stats['countries']} countries, "
            f"{stats['bytes']} bytes) -> {args.output}"
        )
        return 0

    # lookup: one-line exit-2 validation in the `repro run` style.
    ip = args.ip.strip()
    if ipv4_to_int(ip) is None and ":" not in ip:
        print(f"not a valid IP address: {args.ip!r}", file=sys.stderr)
        return 2
    provider = get_active_provider()
    enrichment = provider.lookup(ip)
    if args.json:
        import json as _json

        payload = dict(enrichment.as_dict())
        payload["provider"] = provider.name
        print(_json.dumps(payload, sort_keys=True))
        return 0
    country = enrichment.country or "??"
    prefix = enrichment.prefix or "-"
    print(
        f"{ip} -> country={country} asn={enrichment.asn} prefix={prefix} "
        f"(provider={provider.name})"
    )
    if not enrichment.known:
        print("address is outside the provider's tables (sentinel ASN 0)")
    return 0


def _usage_error(error: BaseException) -> int:
    print(error.args[0] if error.args else str(error), file=sys.stderr)
    return 2


def _cmd_grid(args: argparse.Namespace) -> int:
    import json as _json

    from .service import (
        GridSpec,
        JobQueue,
        Telemetry,
        execute_grid,
        parse_axis,
        plan_grid,
    )

    db_path = _resolve_service_db(args)

    if args.grid_action == "plan":
        try:
            axes = tuple(parse_axis(text) for text in args.axis)
            spec = GridSpec(
                scenario=args.scenario,
                axes=axes,
                scale=args.scale,
                seed=args.seed,
                days=args.days,
                retry_budget=args.retry_budget,
            )
            plan = plan_grid(spec)
        except (KeyError, ValueError, TypeError) as error:
            return _usage_error(error)
        with JobQueue(db_path) as queue:
            try:
                stats = queue.enqueue_plan(plan)
            except ValueError as error:
                return _usage_error(error)
        if args.json:
            payload = {
                "grid_id": plan.grid_id,
                "jobs": [job.as_dict() for job in plan.jobs],
                "groups": [
                    {"digest": digest, "jobs": [job.name for job in group]}
                    for digest, group in plan.groups
                ],
                "inserted": stats["inserted"],
                "service_db": str(db_path),
            }
            print(_json.dumps(payload, indent=2, sort_keys=True, default=str))
            return 0
        shared = plan.shared_digests
        print(
            f"planned grid {plan.grid_id}: {len(plan.jobs)} job(s) in "
            f"{len(plan.groups)} exposure group(s) "
            f"({stats['inserted']} newly queued) -> {db_path}"
        )
        for digest, group in plan.groups:
            label = digest if digest is not None else "(no shared exposure)"
            print(f"  {label}: {', '.join(job.name for job in group)}")
        if shared:
            print(
                f"{len(shared)} shared SharedExposure build(s) amortised "
                f"across the grid"
            )
        print(f"run it with: repro grid run {plan.grid_id}")
        return 0

    # run / resume
    with JobQueue(db_path) as queue:
        grid_id = args.grid_id or queue.latest_grid_id()
        if grid_id is None:
            print("no grids planned yet; start with `repro grid plan`", file=sys.stderr)
            return 2
        try:
            queue.grid_spec(grid_id)
        except KeyError as error:
            return _usage_error(error)
    telemetry_path = args.telemetry or db_path.with_suffix(".telemetry.jsonl")
    telemetry = Telemetry(telemetry_path)
    try:
        outcome = execute_grid(
            str(db_path),
            grid_id,
            engine_factory=partial(_make_engine, args),
            telemetry=telemetry,
            max_jobs=args.max_jobs,
            backoff_base=args.backoff,
            progress=print,
        )
    finally:
        telemetry.close()
    with JobQueue(db_path) as queue:
        counts = queue.counts(grid_id)
    print(
        f"grid {grid_id}: {outcome.done} job(s) finished this invocation "
        f"({outcome.retried} retried, {outcome.dead_lettered} dead-lettered) "
        f"in {outcome.wall_seconds:.1f}s; queue now "
        + ", ".join(f"{counts[state]} {state}" for state in sorted(counts))
    )
    print(
        f"exposure cache: {outcome.exposure_builds} population build(s), "
        f"{outcome.exposure_hits} cache hit(s), "
        f"{outcome.exposure_disk_hits} disk hit(s)"
    )
    print(f"telemetry: {telemetry_path}")
    complete = counts["pending"] == 0 and counts["running"] == 0 and counts["failed"] == 0
    return 0 if complete else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from .service import JobQueue

    db_path = _resolve_service_db(args)
    with JobQueue(db_path) as queue:
        rows = queue.list_jobs(args.grid)
        dead = queue.dead_letter_jobs(args.grid)
    if args.json:
        print(
            _json.dumps(
                {"jobs": rows, "dead_letter": dead},
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
        return 0
    if not rows:
        print("no jobs queued")
        return 0
    print(f"{len(rows)} job(s) in {db_path}:")
    for row in rows:
        state = f"{row['state']}"
        attempts = f"{row['attempts']}/{row['retry_budget']}"
        print(
            f"  [{state:<7}] {row['grid_id']} :: {row['name']} "
            f"(attempts {attempts})"
        )
    if dead:
        print(f"\n{len(dead)} dead-letter job(s):")
        for row in dead:
            last_line = str(row["traceback"]).strip().splitlines()[-1]
            print(
                f"  {row['grid_id']} :: {row['name']} "
                f"(after {row['attempts']} attempt(s)): {last_line}"
            )
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    import json as _json

    from .service import ResultStore

    db_path = _resolve_service_db(args)
    with ResultStore(db_path) as store:
        if args.results_action == "ls":
            runs = store.runs(args.grid)
            if args.json:
                print(_json.dumps(runs, indent=2, sort_keys=True, default=str))
                return 0
            if not runs:
                print("no results recorded")
                return 0
            print(f"{len(runs)} recorded run(s) in {db_path}:")
            for run in runs:
                label = run["job_name"] or run["scenario"]
                grid = run["grid_id"] or "-"
                print(
                    f"  {run['run_id']}  {run['scenario']:<24} {grid} :: "
                    f"{label} (scale={run['scale']:g} seed={run['seed']})"
                )
            return 0
        if args.results_action == "show":
            try:
                run = store.get_run(args.ref)
            except KeyError as error:
                return _usage_error(error)
            if args.json:
                print(_json.dumps(run, indent=2, sort_keys=True, default=str))
                return 0
            print(
                f"run {run['run_id']}: {run['scenario']} "
                f"(grid={run['grid_id'] or '-'} job={run['job_name'] or '-'} "
                f"scale={run['scale']:g} seed={run['seed']} "
                f"digest={run['exposure_digest'] or '-'})"
            )
            for name, summary in sorted(run["summary"].items()):
                print()
                print(format_kv({str(k): v for k, v in summary.items()}, title=name))
            figures = run["series"]["figures"]
            if figures:
                print(f"\nfigure series: {', '.join(sorted(figures))}")
            return 0
        # export
        payload = store.export_bytes(args.grid)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_bytes(payload)
        print(f"exported {len(payload)} canonical bytes -> {args.out}")
    else:
        sys.stdout.write(payload.decode("utf-8"))
        sys.stdout.write("\n")
    return 0


@contextmanager
def _terminate_via_system_exit() -> Iterator[None]:
    """Route SIGINT/SIGTERM through ``SystemExit`` for the dialog's duration.

    The default SIGTERM disposition kills the process without unwinding the
    stack, so ``main()``'s ``finally:`` — which joins the exposure engine's
    background bundle writes — never ran on an interrupted grid run,
    leaving stale ``.exposure-*`` temp dirs behind.  Raising ``SystemExit``
    (exit code 128+signum, the shell convention) instead lets every
    ``finally:`` fire: engines flush, the in-flight job is un-claimed, the
    provider closes.  Only the main thread may install handlers; in-process
    callers on other threads (tests, notebooks) skip the install.
    """
    installed = {}
    def _raise_exit(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)

    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                installed[signum] = signal.signal(signum, _raise_exit)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
    try:
        yield
    finally:
        for signum, previous in installed.items():
            signal.signal(signum, previous)


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .enrichment import build_provider, set_active_provider

    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "scenarios": _cmd_scenarios,
        "run": _cmd_run,
        "cache": _cmd_cache,
        "geo": _cmd_geo,
        "grid": _cmd_grid,
        "jobs": _cmd_jobs,
        "results": _cmd_results,
    }
    handler = commands.get(args.command)
    if handler is None:
        parser.error(f"unknown command {args.command!r}")
        return 2
    provider = None
    building_db = args.command == "geo" and args.geo_action == "build-db"
    if not building_db:
        # Install the session-active enrichment provider before dispatch so
        # every analysis resolves through it; selection errors are usage
        # errors (one line, exit 2), like `repro run`'s validation.
        try:
            provider = build_provider(
                resolve_option(args.geo_provider, "REPRO_GEO_PROVIDER"),
                resolve_option(
                    None if args.geo_db is None else str(args.geo_db),
                    "REPRO_GEO_DB",
                ),
            )
        except ValueError as error:
            print(error.args[0] if error.args else str(error), file=sys.stderr)
            return 2
        set_active_provider(provider)
    try:
        with _terminate_via_system_exit():
            return handler(args)
    finally:
        if not building_db:
            set_active_provider(None)
            close = getattr(provider, "close", None)
            if close is not None:
                close()
        engine = getattr(args, "_engine", None)
        if engine is not None:
            engine.flush()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
