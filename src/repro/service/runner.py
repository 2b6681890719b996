"""Grid execution: drain the job queue through shared exposure engines.

``execute_grid`` is the worker loop behind ``repro grid run|resume``:

1. re-pend any jobs a dead process left ``running`` (crash recovery;
   jobs claimed by another live ``grid run`` on this host stay theirs,
   so two processes on one service db drain it together);
2. claim -> execute -> persist, job by job, with per-phase telemetry
   spans and an ``exposure.cache`` counter-delta event per job (the CI
   gate sums these to prove a digest group built its population once);
3. on success record the result (deterministic run id, so resume is
   idempotent) and mark the job done; on failure hand the traceback to
   the queue's retry/dead-letter policy; on interrupt un-claim the
   in-flight job and re-raise so the CLI's signal handler semantics hold.

Because the planner ordered jobs group-by-group, the loop's one
:class:`ExposureEngine` touches each ``SharedExposure`` exactly once per
group.  Jobs run one at a time on the calling thread, so SIGINT/SIGTERM
land inside the in-flight job and its interrupt handling applies.

The loop always flushes its engine in a ``finally`` — together with the
CLI's SIGINT/SIGTERM handler this joins background bundle writes, so an
interrupted run leaves no half-written ``.exposure-*`` temp dirs behind.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.scenario import run_scenario
from ..sim.exposure import ExposureEngine
from .queue import ClaimedJob, JobQueue, claimant_name
from .store import ResultStore
from .telemetry import Telemetry

__all__ = ["GridRunResult", "execute_grid"]

#: Test hook: seconds to sleep inside every job execution, so integration
#: tests can interrupt a run deterministically mid-queue.
_JOB_DELAY_ENV = "REPRO_GRID_JOB_DELAY"


@dataclass
class GridRunResult:
    """What one ``execute_grid`` invocation did (not whole-grid state)."""

    grid_id: str
    executed: List[str] = field(default_factory=list)
    done: int = 0
    retried: int = 0
    dead_lettered: int = 0
    wall_seconds: float = 0.0
    job_wall_seconds: Dict[str, float] = field(default_factory=dict)
    exposure_builds: int = 0
    exposure_hits: int = 0
    exposure_disk_hits: int = 0
    interrupted: bool = False


def _job_delay() -> float:
    raw = os.environ.get(_JOB_DELAY_ENV, "").strip()
    if not raw:
        return 0.0
    try:
        return max(0.0, float(raw))
    except ValueError:
        return 0.0


def _run_claimed(
    claimed: ClaimedJob,
    queue: JobQueue,
    store: ResultStore,
    engine: ExposureEngine,
    telemetry: Telemetry,
    out: GridRunResult,
    backoff_base: float,
    progress: Optional[Callable[[str], None]],
) -> None:
    """Execute one claimed job through its full lifecycle."""
    job = claimed.job
    span_id = telemetry.span_start(
        "job",
        grid=claimed.grid_id,
        job=job.name,
        digest=job.digest,
        attempt=claimed.attempts,
    )
    queue.set_span(claimed.id, span_id)
    start = time.monotonic()
    try:
        with telemetry.span("phase:resolve", job=job.name):
            spec = job.resolved_spec()
        hits0, misses0, disk0 = engine.hits, engine.misses, engine.disk_hits
        with telemetry.span("phase:execute", job=job.name):
            delay = _job_delay()
            if delay:
                time.sleep(delay)
            result = run_scenario(
                spec, scale=job.scale, seed=job.seed, engine=engine
            )
        builds = engine.misses - misses0
        hits = engine.hits - hits0
        disk_hits = engine.disk_hits - disk0
        telemetry.event(
            "exposure.cache",
            job=job.name,
            digest=result.exposure_digest,
            builds=builds,
            hits=hits,
            disk_hits=disk_hits,
        )
        wall = time.monotonic() - start
        with telemetry.span("phase:persist", job=job.name):
            run_id = store.record_result(
                result,
                grid_id=claimed.grid_id,
                job=job,
                wall_seconds=wall,
            )
        queue.mark_done(claimed.id, run_id)
        telemetry.event("job.done", job=job.name, run_id=run_id)
        telemetry.span_end("job", span_id, status="ok", seconds=round(wall, 6))
        out.done += 1
        out.executed.append(job.name)
        out.job_wall_seconds[job.name] = wall
        out.exposure_builds += builds
        out.exposure_hits += hits
        out.exposure_disk_hits += disk_hits
        if progress is not None:
            progress(f"[done] {job.name} -> run {run_id}")
    except (KeyboardInterrupt, SystemExit, GeneratorExit):
        # Graceful interrupt: the attempt is refunded and the job goes
        # straight back to pending — resume picks it up first.
        queue.mark_interrupted(claimed.id)
        telemetry.event("job.interrupted", job=job.name)
        telemetry.span_end("job", span_id, status="interrupted")
        out.interrupted = True
        raise
    except Exception as error:
        tb = traceback.format_exc()
        outcome = queue.mark_failed(claimed.id, tb, backoff_base=backoff_base)
        telemetry.event(
            f"job.{outcome}",
            job=job.name,
            attempt=claimed.attempts,
            error=f"{type(error).__name__}: {error}",
        )
        telemetry.span_end("job", span_id, status="error")
        out.executed.append(job.name)
        if outcome == "dead_letter":
            out.dead_lettered += 1
        else:
            out.retried += 1
        if progress is not None:
            progress(
                f"[{outcome}] {job.name} (attempt {claimed.attempts}"
                f"/{claimed.retry_budget}): {type(error).__name__}: {error}"
            )


def execute_grid(
    db_path: str,
    grid_id: str,
    engine_factory: Callable[[], ExposureEngine],
    telemetry: Optional[Telemetry] = None,
    max_jobs: Optional[int] = None,
    backoff_base: float = 0.5,
    progress: Optional[Callable[[str], None]] = None,
) -> GridRunResult:
    """Execute (or resume) one grid's queue until drained or interrupted."""
    telemetry = telemetry if telemetry is not None else Telemetry(None)
    out = GridRunResult(grid_id=grid_id)
    started = time.monotonic()
    worker = claimant_name()
    engine: Optional[ExposureEngine] = None
    telemetry.event("grid.start", grid=grid_id)
    try:
        with JobQueue(db_path) as queue, ResultStore(db_path) as store:
            recovered = queue.recover_stale(grid_id)
            if recovered:
                telemetry.event("grid.recovered_stale", grid=grid_id, jobs=recovered)
            engine = engine_factory()
            claims = 0
            while max_jobs is None or claims < max_jobs:
                claimed = queue.claim_next(worker, grid_id=grid_id)
                if claimed is None:
                    # Distinguish "drained" from "every pending job is
                    # backing off": in the latter case wait out the
                    # earliest retry.
                    eligible_at = queue.next_eligible_at(grid_id)
                    if eligible_at is None:
                        break
                    wait = max(0.0, eligible_at - time.time())
                    time.sleep(min(wait, 0.5) if wait else 0.01)
                    continue
                claims += 1
                _run_claimed(
                    claimed, queue, store, engine, telemetry, out,
                    backoff_base, progress,
                )
    finally:
        # Join background bundle writes even on interrupt: no stale
        # .exposure-* temp dirs may survive a killed grid run.
        if engine is not None:
            engine.flush()
        out.wall_seconds = time.monotonic() - started
        telemetry.event(
            "grid.finish",
            grid=grid_id,
            done=out.done,
            retried=out.retried,
            dead_lettered=out.dead_lettered,
            interrupted=out.interrupted,
            seconds=round(out.wall_seconds, 6),
        )
    return out
