"""SQLite-backed persistent job queue with retries and a dead-letter table.

One ``service.sqlite`` file holds the whole campaign service state — this
module owns the ``grids`` / ``jobs`` / ``dead_letter`` tables (the result
store shares the file with its own tables).  Design points:

* **Crash-safe claims** — ``claim_next`` runs a ``BEGIN IMMEDIATE``
  transaction: select the first eligible pending job (group order, so one
  digest group drains before the next starts), flip it to ``running`` and
  stamp the claimant in the same transaction.  Two connections — in one
  process or two — can never claim the same job.
* **Retry budget with backoff** — a failed job goes back to ``pending``
  with ``not_before = now + backoff * 2^(attempt-1)``; once ``attempts``
  reaches the budget it is parked as ``failed`` and a row with the full
  traceback lands in ``dead_letter`` (``repro jobs ls`` shows both).
* **Resume semantics** — a *graceful* interrupt (SIGINT/SIGTERM reaches
  the worker loop's ``finally``) calls :meth:`mark_interrupted`, which
  un-claims the job and refunds the attempt.  A hard kill leaves the row
  ``running``; :meth:`recover_stale` re-pends it on the next run and the
  attempt stays spent — a job that repeatedly kills the process still
  drains into the dead-letter table instead of looping forever.  A claim
  held by a live process on this host (see :func:`claimant_name`) is left
  alone, so a second ``grid run`` on the same file works the queue
  alongside the first instead of re-running its in-flight job.
* **WAL journaling** — readers (``repro jobs ls``, a monitoring loop)
  never block the single writer mid-campaign.

States: ``pending`` -> ``running`` -> ``done`` | ``failed`` (terminal,
mirrored in ``dead_letter``), with ``running -> pending`` on retry,
interrupt, or stale recovery.
"""

from __future__ import annotations

import json
import os
import re
import socket
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from .grid import GridJob, GridPlan, GridSpec

__all__ = ["ClaimedJob", "JobQueue", "JOB_STATES", "claimant_name"]

JOB_STATES = ("pending", "running", "done", "failed")

_CLAIMANT = re.compile(r"worker-([1-9][0-9]*)@(.+)")


def claimant_name() -> str:
    """This process's claimant name: ``worker-<pid>@<host>``."""
    return f"worker-{os.getpid()}@{socket.gethostname()}"


def _claimant_alive(claimed_by: Optional[str]) -> bool:
    """Whether ``claimed_by`` names a live process on this host."""
    match = _CLAIMANT.fullmatch(claimed_by or "")
    if match is None or match.group(2) != socket.gethostname():
        return False
    try:
        os.kill(int(match.group(1)), 0)
    except PermissionError:
        return True  # the process exists under another user
    except (OSError, OverflowError):
        return False
    return True


_SCHEMA = """
CREATE TABLE IF NOT EXISTS grids (
    grid_id    TEXT PRIMARY KEY,
    scenario   TEXT NOT NULL,
    spec_json  TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    grid_id      TEXT NOT NULL REFERENCES grids(grid_id),
    name         TEXT NOT NULL,
    job_json     TEXT NOT NULL,
    digest       TEXT,
    group_order  INTEGER NOT NULL,
    state        TEXT NOT NULL DEFAULT 'pending',
    attempts     INTEGER NOT NULL DEFAULT 0,
    retry_budget INTEGER NOT NULL DEFAULT 3,
    not_before   REAL NOT NULL DEFAULT 0,
    claimed_by   TEXT,
    claimed_at   REAL,
    finished_at  REAL,
    run_id       TEXT,
    span_id      TEXT,
    error        TEXT,
    UNIQUE (grid_id, name)
);
CREATE INDEX IF NOT EXISTS jobs_claim
    ON jobs (state, grid_id, group_order);
CREATE TABLE IF NOT EXISTS dead_letter (
    job_id    INTEGER PRIMARY KEY REFERENCES jobs(id),
    grid_id   TEXT NOT NULL,
    name      TEXT NOT NULL,
    job_json  TEXT NOT NULL,
    attempts  INTEGER NOT NULL,
    traceback TEXT NOT NULL,
    parked_at REAL NOT NULL
);
"""


@dataclass(frozen=True)
class ClaimedJob:
    """One claimed job: queue row id + the planned job value."""

    id: int
    grid_id: str
    job: GridJob
    attempts: int
    retry_budget: int


class JobQueue:
    """Persistent queue over one SQLite file (open one instance per thread)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- planning ---------------------------------------------------------- #
    def enqueue_plan(self, plan: GridPlan, now: Optional[float] = None) -> Dict[str, int]:
        """Persist a plan; idempotent for a byte-identical spec.

        The grid id is a content hash of the spec, so replanning the same
        grid inserts nothing (finished jobs keep their state — this is what
        makes ``repro grid plan && repro grid resume`` safe to re-run); a
        *different* spec hashing to an existing id cannot happen short of a
        SHA-256 collision.
        """
        now = time.time() if now is None else now
        spec_json = json.dumps(plan.spec.as_dict(), sort_keys=True, default=str)
        inserted = 0
        with self._conn:
            existing = self._conn.execute(
                "SELECT spec_json FROM grids WHERE grid_id = ?", (plan.grid_id,)
            ).fetchone()
            if existing is None:
                self._conn.execute(
                    "INSERT INTO grids (grid_id, scenario, spec_json, created_at) "
                    "VALUES (?, ?, ?, ?)",
                    (plan.grid_id, plan.spec.scenario, spec_json, now),
                )
            elif existing["spec_json"] != spec_json:
                raise ValueError(
                    f"grid {plan.grid_id!r} already exists with a different spec"
                )
            for order, job in enumerate(plan.jobs):
                # The digest column is the *group key*: digest-less
                # (message-level) jobs get a unique ``solo:`` key, so every
                # row names the group it belongs to.
                group_key = job.digest or f"solo:{job.name}"
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO jobs "
                    "(grid_id, name, job_json, digest, group_order, retry_budget) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        plan.grid_id,
                        job.name,
                        json.dumps(job.as_dict(), sort_keys=True, default=str),
                        group_key,
                        order,
                        plan.spec.retry_budget,
                    ),
                )
                inserted += cursor.rowcount
        return {"jobs": len(plan.jobs), "inserted": inserted}

    def grid_spec(self, grid_id: str) -> GridSpec:
        row = self._conn.execute(
            "SELECT spec_json FROM grids WHERE grid_id = ?", (grid_id,)
        ).fetchone()
        if row is None:
            known = ", ".join(self.grid_ids()) or "<none>"
            raise KeyError(f"unknown grid {grid_id!r}; planned: {known}")
        return GridSpec.from_dict(json.loads(row["spec_json"]))

    def grid_ids(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT grid_id FROM grids ORDER BY created_at, grid_id"
        ).fetchall()
        return [row["grid_id"] for row in rows]

    def latest_grid_id(self) -> Optional[str]:
        ids = self.grid_ids()
        return ids[-1] if ids else None

    # -- claiming ---------------------------------------------------------- #
    def claim_next(
        self,
        worker: str,
        grid_id: Optional[str] = None,
        now: Optional[float] = None,
    ) -> Optional[ClaimedJob]:
        """Lease the next eligible pending job (None when none is due)."""
        now = time.time() if now is None else now
        where = ["state = 'pending'", "not_before <= ?"]
        args: List[object] = [now]
        if grid_id is not None:
            where.append("grid_id = ?")
            args.append(grid_id)
        query = (
            "SELECT id, grid_id, job_json, attempts, retry_budget FROM jobs "
            f"WHERE {' AND '.join(where)} ORDER BY grid_id, group_order LIMIT 1"
        )
        with self._conn:
            # BEGIN IMMEDIATE: take the write lock before reading, so a
            # concurrent claimer serialises here instead of both selecting
            # the same row.
            self._conn.execute("BEGIN IMMEDIATE")
            row = self._conn.execute(query, args).fetchone()
            if row is None:
                return None
            self._conn.execute(
                "UPDATE jobs SET state = 'running', claimed_by = ?, "
                "claimed_at = ?, attempts = attempts + 1, error = NULL "
                "WHERE id = ?",
                (worker, now, row["id"]),
            )
        return ClaimedJob(
            id=row["id"],
            grid_id=row["grid_id"],
            job=GridJob.from_dict(json.loads(row["job_json"])),
            attempts=row["attempts"] + 1,
            retry_budget=row["retry_budget"],
        )

    def next_eligible_at(self, grid_id: Optional[str] = None) -> Optional[float]:
        """Earliest ``not_before`` among pending jobs (None = queue drained)."""
        query = "SELECT MIN(not_before) AS t FROM jobs WHERE state = 'pending'"
        args: List[object] = []
        if grid_id is not None:
            query += " AND grid_id = ?"
            args.append(grid_id)
        row = self._conn.execute(query, args).fetchone()
        return None if row is None or row["t"] is None else float(row["t"])

    # -- completion -------------------------------------------------------- #
    def set_span(self, job_id: int, span_id: str) -> None:
        with self._conn:
            self._conn.execute(
                "UPDATE jobs SET span_id = ? WHERE id = ?", (span_id, job_id)
            )

    def mark_done(
        self, job_id: int, run_id: str, now: Optional[float] = None
    ) -> None:
        now = time.time() if now is None else now
        with self._conn:
            self._conn.execute(
                "UPDATE jobs SET state = 'done', finished_at = ?, run_id = ?, "
                "error = NULL WHERE id = ?",
                (now, run_id, job_id),
            )

    def mark_failed(
        self,
        job_id: int,
        traceback_text: str,
        backoff_base: float = 0.5,
        now: Optional[float] = None,
    ) -> str:
        """Record a failed attempt; returns ``"retry"`` or ``"dead_letter"``."""
        now = time.time() if now is None else now
        with self._conn:
            row = self._conn.execute(
                "SELECT grid_id, name, job_json, attempts, retry_budget "
                "FROM jobs WHERE id = ?",
                (job_id,),
            ).fetchone()
            if row is None:
                raise KeyError(f"no job with id {job_id}")
            if row["attempts"] >= row["retry_budget"]:
                self._conn.execute(
                    "UPDATE jobs SET state = 'failed', finished_at = ?, "
                    "error = ?, claimed_by = NULL WHERE id = ?",
                    (now, traceback_text, job_id),
                )
                self._conn.execute(
                    "INSERT OR REPLACE INTO dead_letter "
                    "(job_id, grid_id, name, job_json, attempts, traceback, "
                    "parked_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        job_id,
                        row["grid_id"],
                        row["name"],
                        row["job_json"],
                        row["attempts"],
                        traceback_text,
                        now,
                    ),
                )
                return "dead_letter"
            delay = backoff_base * (2 ** (row["attempts"] - 1))
            self._conn.execute(
                "UPDATE jobs SET state = 'pending', not_before = ?, error = ?, "
                "claimed_by = NULL WHERE id = ?",
                (now + delay, traceback_text, job_id),
            )
            return "retry"

    def mark_interrupted(self, job_id: int) -> None:
        """Graceful interrupt: un-claim the job and refund the attempt."""
        with self._conn:
            self._conn.execute(
                "UPDATE jobs SET state = 'pending', claimed_by = NULL, "
                "attempts = MAX(attempts - 1, 0) "
                "WHERE id = ? AND state = 'running'",
                (job_id,),
            )

    def recover_stale(self, grid_id: Optional[str] = None) -> int:
        """Re-pend jobs a dead process left ``running`` (attempt stays spent).

        A row claimed as ``worker-<pid>@<host>`` by a process that is still
        alive on this host (``os.kill(pid, 0)`` succeeds) belongs to
        another ``grid run`` at work and stays ``running``.  Rows claimed on
        another host, or under the older ``worker-<pid>`` or any free-form
        name, are taken for dead and re-pended.  The probe cannot tell a
        reused pid from the claimant: a row whose dead claimant's pid now
        belongs to an unrelated process stays ``running`` until that
        process exits.
        """
        query = "SELECT id, claimed_by FROM jobs WHERE state = 'running'"
        args: List[object] = []
        if grid_id is not None:
            query += " AND grid_id = ?"
            args.append(grid_id)
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            stale = [
                (row["id"],)
                for row in self._conn.execute(query, args).fetchall()
                if not _claimant_alive(row["claimed_by"])
            ]
            self._conn.executemany(
                "UPDATE jobs SET state = 'pending', claimed_by = NULL WHERE id = ?",
                stale,
            )
        return len(stale)

    # -- inspection -------------------------------------------------------- #
    def counts(self, grid_id: Optional[str] = None) -> Dict[str, int]:
        query = "SELECT state, COUNT(*) AS n FROM jobs"
        args: List[object] = []
        if grid_id is not None:
            query += " WHERE grid_id = ?"
            args.append(grid_id)
        query += " GROUP BY state"
        counts = {state: 0 for state in JOB_STATES}
        for row in self._conn.execute(query, args):
            counts[row["state"]] = row["n"]
        return counts

    def list_jobs(self, grid_id: Optional[str] = None) -> List[Dict[str, object]]:
        query = (
            "SELECT id, grid_id, name, digest, state, attempts, retry_budget, "
            "not_before, claimed_by, finished_at, run_id, span_id, error "
            "FROM jobs"
        )
        args: List[object] = []
        if grid_id is not None:
            query += " WHERE grid_id = ?"
            args.append(grid_id)
        query += " ORDER BY grid_id, group_order"
        return [dict(row) for row in self._conn.execute(query, args)]

    def dead_letter_jobs(
        self, grid_id: Optional[str] = None
    ) -> List[Dict[str, object]]:
        query = (
            "SELECT job_id, grid_id, name, attempts, traceback, parked_at "
            "FROM dead_letter"
        )
        args: List[object] = []
        if grid_id is not None:
            query += " WHERE grid_id = ?"
            args.append(grid_id)
        query += " ORDER BY parked_at, job_id"
        return [dict(row) for row in self._conn.execute(query, args)]
