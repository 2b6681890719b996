"""CLI surface of the campaign service: option resolution, grid/jobs/results.

The ``resolve_option`` precedence tests are deliberately one-rule-per-test:
every CLI-flag/env-twin pair in the module routes through that single
helper, so these tests pin the precedence contract for all of them at once
(including the service knob ``REPRO_SERVICE_DB``).
"""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main, resolve_option


class TestResolveOption:
    def test_explicit_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPOSURE_BACKEND", "out-of-core")
        assert resolve_option("in-memory", "REPRO_EXPOSURE_BACKEND") == "in-memory"

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DB", "/tmp/x.sqlite")
        assert resolve_option(
            None, "REPRO_SERVICE_DB", default=Path("d"), parse=Path
        ) == Path("/tmp/x.sqlite")

    def test_default_when_neither_given(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_DB", raising=False)
        assert resolve_option(None, "REPRO_SERVICE_DB", default="d") == "d"

    def test_blank_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "   ")
        assert resolve_option(None, "REPRO_CACHE_MAX_BYTES", default=1) == 1

    def test_parse_applies_to_env_only(self, monkeypatch):
        # Flags arrive pre-converted by argparse; parse must not touch them.
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4")
        calls = []

        def parse(raw):
            calls.append(raw)
            return int(raw)

        assert resolve_option(None, "REPRO_CACHE_MAX_BYTES", parse=parse) == 4
        assert resolve_option(9, "REPRO_CACHE_MAX_BYTES", parse=parse) == 9
        assert calls == ["4"]

    def test_flag_zero_is_an_explicit_value(self, monkeypatch):
        # Only None means "flag absent"; falsy values are still explicit.
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "100")
        assert resolve_option(0, "REPRO_CACHE_MAX_BYTES", default=5) == 0


@pytest.fixture()
def service_db(tmp_path, monkeypatch):
    db = tmp_path / "service.sqlite"
    monkeypatch.setenv("REPRO_SERVICE_DB", str(db))
    return db


SWEEP_ARGS = [
    "--scale", "0.02",
    "grid", "plan", "monitor_fraction_sweep",
    "--axis", "params.fractions=0.2:0.5,0.3:0.6,0.4:0.8,0.5:1",
    "--days", "2",
]


class TestGridCli:
    def test_plan_reports_groups_and_is_idempotent(self, service_db, capsys):
        assert main(SWEEP_ARGS) == 0
        first = capsys.readouterr().out
        assert "4 job(s) in 1 exposure group(s)" in first
        assert "(4 newly queued)" in first
        assert main(SWEEP_ARGS) == 0
        again = capsys.readouterr().out
        assert "(0 newly queued)" in again

    def test_plan_json_lists_jobs_and_groups(self, service_db, capsys):
        assert main(SWEEP_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["jobs"]) == 4
        assert len(payload["groups"]) == 1
        assert payload["service_db"] == str(service_db)

    def test_run_then_resume_is_a_noop(self, service_db, capsys):
        assert main(SWEEP_ARGS) == 0
        assert main(["grid", "run"]) == 0
        run_out = capsys.readouterr().out
        assert "4 job(s) finished this invocation" in run_out
        assert "1 population build(s)" in run_out
        assert main(["grid", "resume"]) == 0
        resume_out = capsys.readouterr().out
        assert "0 job(s) finished this invocation" in resume_out
        assert "4 done" in resume_out
        # Default telemetry trace lands next to the service db.
        assert service_db.with_suffix(".telemetry.jsonl").exists()

    def test_jobs_ls_and_results_flow(self, service_db, capsys):
        assert main(SWEEP_ARGS) == 0
        assert main(["grid", "run"]) == 0
        capsys.readouterr()
        assert main(["jobs", "ls"]) == 0
        jobs_out = capsys.readouterr().out
        assert jobs_out.count("[done") == 4
        assert main(["results", "ls"]) == 0
        ls_out = capsys.readouterr().out
        assert "4 run(s)" in ls_out or "params.fractions=0.2:0.5" in ls_out
        assert main(["results", "show", "params.fractions=0.2:0.5"]) == 0
        show_out = capsys.readouterr().out
        assert "monitor_fraction_sweep" in show_out
        out_file = service_db.parent / "export.json"
        assert main(["results", "export", "--out", str(out_file)]) == 0
        exported = json.loads(out_file.read_text())
        assert len(exported["runs"]) == 4


class TestUsageErrors:
    def test_unknown_scenario_exits_2(self, service_db, capsys):
        assert main(["grid", "plan", "not-a-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_malformed_axis_exits_2(self, service_db, capsys):
        assert main(["grid", "plan", "monitor_fraction_sweep", "--axis", "days"]) == 2
        assert capsys.readouterr().err.strip()

    def test_run_with_no_grids_exits_2(self, service_db, capsys):
        assert main(["grid", "run"]) == 2
        assert "no grids planned yet" in capsys.readouterr().err

    def test_unknown_grid_id_exits_2(self, service_db, capsys):
        assert main(SWEEP_ARGS) == 0
        capsys.readouterr()
        assert main(["grid", "run", "nope-123"]) == 2
        assert "unknown grid" in capsys.readouterr().err

    def test_results_show_unknown_ref_exits_2(self, service_db, capsys):
        assert main(["results", "show", "missing"]) == 2
        assert "no run matching" in capsys.readouterr().err


class TestParserSurface:
    def test_grid_run_flags_parse(self):
        args = build_parser().parse_args(
            ["grid", "run", "abc", "--max-jobs", "3",
             "--backoff", "0.1", "--telemetry", "/tmp/t.jsonl"]
        )
        assert args.grid_id == "abc"
        assert args.max_jobs == 3
        assert args.backoff == 0.1
        assert args.telemetry == Path("/tmp/t.jsonl")

    def test_service_db_is_a_global_flag(self):
        args = build_parser().parse_args(
            ["--service-db", "/tmp/s.sqlite", "jobs", "ls"]
        )
        assert args.service_db == Path("/tmp/s.sqlite")
