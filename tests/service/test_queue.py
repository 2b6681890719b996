"""Job queue: claims, retries, dead-lettering, recovery, idempotent plans."""

import os
import socket
import subprocess
import sys

import pytest

from repro.service import GridAxis, GridSpec, JobQueue, plan_grid
from repro.service.queue import claimant_name


@pytest.fixture()
def plan():
    return plan_grid(
        GridSpec(
            scenario="monitor_fraction_sweep",
            axes=(
                GridAxis("days", (2, 3)),
                GridAxis("params.fractions", ((0.5,), (1.0,))),
            ),
            scale=0.02,
            retry_budget=2,
        )
    )


@pytest.fixture()
def queue(tmp_path, plan):
    q = JobQueue(tmp_path / "service.sqlite")
    q.enqueue_plan(plan)
    yield q
    q.close()


class TestPlanning:
    def test_enqueue_is_idempotent(self, queue, plan):
        stats = queue.enqueue_plan(plan)
        assert stats == {"jobs": 4, "inserted": 0}
        assert queue.counts(plan.grid_id)["pending"] == 4

    def test_replan_preserves_finished_state(self, queue, plan):
        claimed = queue.claim_next("w", grid_id=plan.grid_id)
        queue.mark_done(claimed.id, "run-1")
        queue.enqueue_plan(plan)
        counts = queue.counts(plan.grid_id)
        assert counts["done"] == 1 and counts["pending"] == 3

    def test_grid_spec_roundtrip_and_unknown_grid(self, queue, plan):
        assert queue.grid_spec(plan.grid_id) == plan.spec
        with pytest.raises(KeyError, match="unknown grid"):
            queue.grid_spec("nope")
        assert queue.latest_grid_id() == plan.grid_id


class TestClaiming:
    def test_claims_follow_group_order(self, queue, plan):
        order = [queue.claim_next("w", grid_id=plan.grid_id).job.name for _ in range(4)]
        assert order == [job.name for job in plan.jobs]

    def test_claim_marks_running_and_counts_attempt(self, queue, plan):
        claimed = queue.claim_next("worker-a", grid_id=plan.grid_id)
        assert claimed.attempts == 1
        row = queue.list_jobs(plan.grid_id)[0]
        assert row["state"] == "running"
        assert row["claimed_by"] == "worker-a"

    def test_two_connections_never_claim_the_same_job(self, tmp_path, plan):
        path = tmp_path / "service.sqlite"
        with JobQueue(path) as a:
            a.enqueue_plan(plan)
            with JobQueue(path) as b:
                names = set()
                for q in (a, b, a, b):
                    names.add(q.claim_next("w", grid_id=plan.grid_id).job.name)
        assert len(names) == 4

    def test_drained_queue_claims_none(self, queue, plan):
        for _ in range(4):
            queue.mark_done(queue.claim_next("w").id, "r")
        assert queue.claim_next("w") is None
        assert queue.next_eligible_at(plan.grid_id) is None


class TestRetriesAndDeadLetter:
    def test_failure_backs_off_then_dead_letters(self, queue, plan):
        claimed = queue.claim_next("w", grid_id=plan.grid_id, now=100.0)
        outcome = queue.mark_failed(claimed.id, "Traceback: boom", backoff_base=0.5, now=101.0)
        assert outcome == "retry"
        # Backing off: not eligible at now, so the claim moves on to the
        # next job of the same digest group, then the other group.
        rest = [queue.claim_next("w", grid_id=plan.grid_id, now=101.0) for _ in range(3)]
        assert [job.job.name for job in rest] == [job.name for job in plan.jobs[1:]]
        assert rest[0].job.digest == claimed.job.digest
        assert queue.claim_next("w", grid_id=plan.grid_id, now=101.0) is None
        # The failed job is the only pending one: eligible at not_before.
        assert queue.next_eligible_at(plan.grid_id) == pytest.approx(101.5)
        again = queue.claim_next("w", grid_id=plan.grid_id, now=102.0)
        assert again.job.name == claimed.job.name
        assert again.attempts == 2
        outcome = queue.mark_failed(again.id, "Traceback: boom again", now=103.0)
        assert outcome == "dead_letter"
        dead = queue.dead_letter_jobs(plan.grid_id)
        assert len(dead) == 1
        assert dead[0]["name"] == claimed.job.name
        assert dead[0]["attempts"] == 2
        assert "boom again" in dead[0]["traceback"]
        assert queue.counts(plan.grid_id)["failed"] == 1

    def test_done_clears_error_and_stores_run_id(self, queue, plan):
        claimed = queue.claim_next("w")
        queue.mark_failed(claimed.id, "tb", backoff_base=0.0, now=1.0)
        again = queue.claim_next("w", now=2.0)
        queue.mark_done(again.id, "run-xyz")
        row = queue.list_jobs(plan.grid_id)[0]
        assert row["state"] == "done"
        assert row["run_id"] == "run-xyz"
        assert row["error"] is None


class TestRecovery:
    def test_interrupt_refunds_the_attempt(self, queue, plan):
        claimed = queue.claim_next("w")
        queue.mark_interrupted(claimed.id)
        row = queue.list_jobs(plan.grid_id)[0]
        assert row["state"] == "pending"
        assert row["attempts"] == 0
        assert row["claimed_by"] is None

    def test_recover_stale_keeps_the_attempt_spent(self, queue, plan):
        queue.claim_next("w")
        queue.claim_next("w")
        assert queue.recover_stale(plan.grid_id) == 2
        rows = queue.list_jobs(plan.grid_id)
        assert all(row["state"] == "pending" for row in rows)
        assert sum(row["attempts"] for row in rows) == 2

    def test_recover_stale_leaves_a_live_claim_running(self, queue, plan):
        assert claimant_name() == f"worker-{os.getpid()}@{socket.gethostname()}"
        queue.claim_next(claimant_name())
        assert queue.recover_stale(plan.grid_id) == 0
        row = queue.list_jobs(plan.grid_id)[0]
        assert row["state"] == "running"
        assert row["claimed_by"] == claimant_name()

    def test_recover_stale_repends_an_exited_claimant(self, queue, plan):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        queue.claim_next(f"worker-{child.pid}@{socket.gethostname()}")
        queue.claim_next(f"worker-{os.getpid()}@another-host")
        queue.claim_next(f"worker-{os.getpid()}")
        assert queue.recover_stale(plan.grid_id) == 3
        assert queue.counts(plan.grid_id)["running"] == 0

    def test_span_id_lands_on_the_job_row(self, queue, plan):
        claimed = queue.claim_next("w")
        queue.set_span(claimed.id, "span-1-2")
        assert queue.list_jobs(plan.grid_id)[0]["span_id"] == "span-1-2"


class TestGroupKeys:
    def test_solo_jobs_get_unique_group_keys(self, tmp_path):
        plan = plan_grid(GridSpec(scenario="reseed_denial", scale=0.02))
        with JobQueue(tmp_path / "s.sqlite") as queue:
            queue.enqueue_plan(plan)
            digests = [row["digest"] for row in queue.list_jobs(plan.grid_id)]
        assert digests == ["solo:base"]
