"""The repository's benchmark: the paper's campaign on both exposure backends,
and the netDb message plane.

    python3 perfbench/run.py --workload campaign-mem --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh process
(``passes.py``) with its own empty cache directory and no ``REPRO_*``
variables; passes repeat, in whole rounds, until ``--seconds`` is used up.
Each pass prints its raw seconds and reference durations; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and the metrics
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``), each the
median over the run's passes.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("campaign-mem", "campaign-ooc", "netdb")
#: Every span a traced pass records, in the order the per-layer metrics list them.
LAYER_SPANS = (
    "exposure.get",
    "exposure.days",
    "exposure.masks",
    "campaign.observe",
    "analysis.population",
    "analysis.longevity",
    "analysis.ip_churn",
    "analysis.capacity",
    "analysis.geography",
    "analysis.blocking",
    "analysis.bridges",
    "analysis.summary",
    "cache.flush",
    "netdb.build",
    "netdb.converge",
    "netdb.publish",
    "netdb.lookup",
)
COUNTERS = {
    "cache.bundle_mib": "MiB",
    "exposure.builds": "count",
    "exposure.disk_hits": "count",
    "campaign.peer_days": "count",
    "campaign.unique_peers": "count",
    "netdb.publish_msgs": "count",
    "netdb.replay_share": "ratio",
    "netdb.ff_view_rebuilds": "count",
    "netdb.flood_table_rebuilds": "count",
    "netdb.lookups": "count",
}
#: Passes that would ask the program to time out: the benchmark gives up.
PASS_TIMEOUT_S = 150


def arguments(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pass_environment() -> Dict[str, str]:
    """The parent's environment without ``REPRO_*`` knobs, with hash
    randomisation off so a pass's work never depends on it."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(args: argparse.Namespace, traced: bool, index: int, workdir: Path) -> Dict[str, object]:
    trace_dir = ROOT / ".perfbench" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{args.workload}-seed{args.seed}-pass{index}.json"
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "passes.py"),
            args.workload,
            str(args.seed),
            "1" if traced else "0",
            repr(spawned_at),
            str(workdir),
            str(trace_file),
        ],
        cwd=ROOT,
        env=pass_environment(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, _ = process.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: a {args.workload} pass ran past {PASS_TIMEOUT_S} s")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    wall = time.monotonic() - spawned_at
    if process.returncode != 0:
        raise SystemExit(f"perfbench: a {args.workload} pass exited with {process.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["wall_s"] = wall
    report["traced"] = traced
    if traced:
        report["coverage"] = report["top_level_wall_s"] / wall
    return report


def describe(report: Dict[str, object]) -> str:
    kind = "traced" if report["traced"] else "untraced"
    parts = [f"{kind} pass: wall {report['wall_s']:.3f} s"]
    for name in ("setup", "run"):
        timing = report[name]
        parts.append(
            f"{name} {timing['s']:.4f} s at reference speed "
            f"(raw {timing['raw_s']:.4f} s; reference median {timing['ref_median_s'] * 1e3:.3f} ms, "
            f"min {timing['ref_min_s'] * 1e3:.3f}, max {timing['ref_max_s'] * 1e3:.3f}, "
            f"n={timing['ref_samples']})"
        )
    parts.append(f"peak rss {report['peak_rss_mib']:.1f} MiB")
    if report["traced"]:
        parts.append(f"top-level spans cover {report['coverage']:.1%} of the pass's wall time")
    if report.get("digest"):
        parts.append(f"result digest {report['digest']}")
    return "; ".join(parts)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(untraced: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    return {
        "setup_s": metric(statistics.median(r["setup"]["s"] for r in untraced), "s"),
        "run_s": metric(statistics.median(r["run"]["s"] for r in untraced), "s"),
        "peak_rss_mib": metric(statistics.median(r["peak_rss_mib"] for r in untraced), "MiB"),
    }


def per_layer(untraced: List[Dict[str, object]], traced: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Median over traced passes of every span's corrected time and rss;
    0 for a layer the workload never calls."""
    metrics: Dict[str, Dict[str, object]] = {}
    for name in LAYER_SPANS:
        seconds, rss = [], []
        for report in traced:
            spans = [s for s in report["spans"] if s["name"] == name]
            seconds.append(sum(s["s"] for s in spans))
            rss.append(max((s["rss_mib"] for s in spans), default=0.0))
        metrics[f"{name}_s"] = metric(statistics.median(seconds), "s")
        metrics[f"{name}.rss_mib"] = metric(statistics.median(rss), "MiB")
    for name, unit in COUNTERS.items():
        metrics[name] = metric(statistics.median(r["counters"].get(name, 0) for r in traced), unit)
    overhead = statistics.median(r["run"]["s"] for r in traced) - statistics.median(
        r["run"]["s"] for r in untraced
    )
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return metrics


def terminate(signum, frame) -> None:  # noqa: ARG001 - signal API
    """SIGTERM: unwind, so the running pass is killed and its work removed."""
    raise SystemExit(128 + signum)


def main(argv: List[str]) -> int:
    signal.signal(signal.SIGTERM, terminate)
    args = arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    kinds = (False, True) if args.trace else (False,)
    reports: List[Dict[str, object]] = []
    started = time.monotonic()
    longest_round = 0.0
    try:
        # Whole rounds only, and a round starts only if it should finish in time.
        while not reports or time.monotonic() - started + longest_round <= args.seconds:
            round_start = time.monotonic()
            for traced in kinds:
                report = run_pass(args, traced, len(reports), workdir)
                reports.append(report)
                print(describe(report), flush=True)
            longest_round = max(longest_round, time.monotonic() - round_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in reports if not r["traced"]]
    traced_reports = [r for r in reports if r["traced"]]
    problems = [p for r in reports for p in r["problems"]]
    digests = {r["digest"] for r in reports}
    if len(digests) > 1:
        problems.append(f"passes of one seed disagree on the result digest: {sorted(digests)}")
    problems += compare_backends(args, digests)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", flush=True)
    failures = [f for r in reports for f in r["failures"]]
    for failure in sorted(set(failures)):
        print(f"OPERATION FAILED in {failures.count(failure)} of {len(reports)} passes: {failure}", flush=True)
    metrics = per_layer(untraced, traced_reports) if args.trace else end_to_end(untraced)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def source_version() -> str:
    """SHA-256 over the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def compare_backends(args: argparse.Namespace, digests: set) -> List[str]:
    """The two campaign backends must produce the same result: each run
    records its digest per seed, and checks the other backend's record.
    Records are kept per source version, so only runs of the same code
    are compared."""
    if not args.workload.startswith("campaign") or len(digests) != 1:
        return []
    record_dir = ROOT / ".perfbench" / "digests" / source_version()
    record_dir.mkdir(parents=True, exist_ok=True)
    (digest,) = digests
    (record_dir / f"{args.workload}-seed{args.seed}").write_text(digest)
    other = "campaign-ooc" if args.workload == "campaign-mem" else "campaign-mem"
    recorded = record_dir / f"{other}-seed{args.seed}"
    if recorded.is_file() and recorded.read_text() != digest:
        return [f"{args.workload} and {other} give different results for seed {args.seed}"]
    return []


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
