"""Grid runner: shared builds, resume semantics, retries, digest groups."""

from repro.core import run_scenario
from repro.service import (
    GridAxis,
    GridSpec,
    JobQueue,
    ResultStore,
    Telemetry,
    count_events,
    execute_grid,
    plan_grid,
    read_events,
)
from repro.service.store import canonical_json, summary_payload
from repro.sim.exposure import ExposureEngine


def sweep_spec(**overrides):
    base = dict(
        scenario="monitor_fraction_sweep",
        axes=(
            GridAxis(
                "params.fractions",
                ((0.2, 0.5), (0.3, 0.6), (0.4, 0.8), (0.5, 1.0)),
            ),
        ),
        scale=0.02,
        days=2,
        retry_budget=2,
    )
    base.update(overrides)
    return GridSpec(**base)


def enqueue(tmp_path, spec):
    plan = plan_grid(spec)
    db = tmp_path / "service.sqlite"
    with JobQueue(db) as queue:
        queue.enqueue_plan(plan)
    return plan, str(db)


def engine_factory_for(tmp_path):
    cache = tmp_path / "exposure-cache"
    return lambda: ExposureEngine(cache_dir=cache)


class TestSharedBuilds:
    def test_four_job_group_builds_exposure_once(self, tmp_path):
        plan, db = enqueue(tmp_path, sweep_spec())
        trace = tmp_path / "trace.jsonl"
        with Telemetry(trace) as telemetry:
            result = execute_grid(
                db, plan.grid_id, engine_factory_for(tmp_path), telemetry=telemetry
            )
        assert result.done == 4
        assert result.exposure_builds == 1
        assert result.exposure_hits == 3
        records = read_events(trace)
        builds = sum(
            int(r["builds"]) for r in records if r.get("name") == "exposure.cache"
        )
        assert builds == 1
        assert count_events(records, "job.done") == 4

    def test_grid_summaries_byte_identical_to_standalone_runs(self, tmp_path):
        plan, db = enqueue(tmp_path, sweep_spec())
        execute_grid(db, plan.grid_id, engine_factory_for(tmp_path))
        with ResultStore(db) as store:
            runs = {run["job_name"]: run for run in store.runs(plan.grid_id)}
            for job in plan.jobs:
                standalone = run_scenario(
                    job.resolved_spec(),
                    scale=job.scale,
                    seed=job.seed,
                    engine=ExposureEngine(cache_dir=tmp_path / "exposure-cache"),
                )
                stored = store.payload_text(runs[job.name]["summary_sha"])
                assert stored == canonical_json(summary_payload(standalone))


class TestResume:
    def test_resume_skips_finished_jobs(self, tmp_path):
        plan, db = enqueue(tmp_path, sweep_spec())
        factory = engine_factory_for(tmp_path)
        first = execute_grid(db, plan.grid_id, factory, max_jobs=2)
        assert first.done == 2
        with JobQueue(db) as queue:
            assert queue.counts(plan.grid_id)["pending"] == 2
        second = execute_grid(db, plan.grid_id, factory)
        assert second.done == 2
        assert set(first.executed).isdisjoint(second.executed)
        # The resumed engine loads the bundle from disk: zero fresh builds.
        assert second.exposure_builds == 0
        assert second.exposure_disk_hits >= 1
        with JobQueue(db) as queue:
            counts = queue.counts(plan.grid_id)
        assert counts["done"] == 4 and counts["pending"] == 0

    def test_rerun_of_finished_grid_is_a_noop(self, tmp_path):
        plan, db = enqueue(tmp_path, sweep_spec())
        factory = engine_factory_for(tmp_path)
        execute_grid(db, plan.grid_id, factory)
        again = execute_grid(db, plan.grid_id, factory)
        assert again.done == 0 and again.executed == []


class TestFailurePolicy:
    def test_poison_job_retries_then_dead_letters(self, tmp_path):
        # fractions > 1 fail validation inside the scenario deterministically.
        spec = sweep_spec(
            axes=(GridAxis("params.fractions", ((0.5,), (2.0, 3.0))),),
            retry_budget=2,
        )
        plan, db = enqueue(tmp_path, spec)
        result = execute_grid(
            db, plan.grid_id, engine_factory_for(tmp_path), backoff_base=0.0
        )
        assert result.done == 1
        assert result.retried == 1
        assert result.dead_lettered == 1
        with JobQueue(db) as queue:
            dead = queue.dead_letter_jobs(plan.grid_id)
            assert len(dead) == 1
            assert "fractions must lie in (0, 1]" in dead[0]["traceback"]
            counts = queue.counts(plan.grid_id)
        assert counts == {"pending": 0, "running": 0, "done": 1, "failed": 1}

    def test_zero_fetches_dead_letters_with_one_line(self, tmp_path):
        spec = GridSpec(
            scenario="usability",
            axes=(GridAxis("params.fetches", (0,)),),
            scale=0.01,
            retry_budget=1,
        )
        plan, db = enqueue(tmp_path, spec)
        result = execute_grid(
            db, plan.grid_id, engine_factory_for(tmp_path), backoff_base=0.0
        )
        assert result.done == 0
        assert result.dead_lettered == 1
        with JobQueue(db) as queue:
            dead = queue.dead_letter_jobs(plan.grid_id)
        last_line = dead[0]["traceback"].strip().splitlines()[-1]
        assert last_line == "ValueError: fetches_per_rate must be at least 1"


class TestDigestGroups:
    def test_two_digest_groups_build_once_each(self, tmp_path):
        spec = sweep_spec(
            axes=(
                GridAxis("days", (2, 3)),
                GridAxis("params.fractions", ((0.5,), (1.0,))),
            ),
            days=None,
        )
        plan, db = enqueue(tmp_path, spec)
        trace = tmp_path / "trace.jsonl"
        with Telemetry(trace) as telemetry:
            result = execute_grid(
                db, plan.grid_id, engine_factory_for(tmp_path), telemetry=telemetry
            )
        assert result.done == 4
        # Jobs drain group by group: one build per digest group.
        assert result.executed == [job.name for job in plan.jobs]
        assert result.exposure_builds == 2
        assert result.exposure_hits == 2
        records = read_events(trace)
        for digest in plan.shared_digests:
            group_builds = sum(
                int(r["builds"])
                for r in records
                if r.get("name") == "exposure.cache" and r.get("digest") == digest
            )
            assert group_builds == 1
