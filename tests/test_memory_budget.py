"""The memory-budget driver at toy scale: record shape and the CLI gate."""

import json

import pytest

from repro.memory_budget import main, run_budgeted_campaign


TOY = {"scale": 0.01, "days": 3, "seed": 7}


class TestRunBudgetedCampaign:
    def test_in_memory_record_is_sane(self):
        record = run_budgeted_campaign(backend="in-memory", **TOY)
        assert record["backend"] == "in_memory"
        assert record["scale"] == TOY["scale"]
        assert record["days"] == TOY["days"]
        assert record["peer_days"] > 0
        assert record["peer_days_per_second"] > 0
        assert record["unique_peers"] > 0
        assert record["peak_rss_kib"] > 0
        assert len(record["summary_sha256"]) == 64

    def test_backends_agree_on_the_summary_digest(self, tmp_path):
        reference = run_budgeted_campaign(backend="in-memory", **TOY)
        restored = run_budgeted_campaign(
            backend="out-of-core", cache_dir=tmp_path, **TOY
        )
        assert restored["backend"] == "out_of_core"
        assert restored["summary_sha256"] == reference["summary_sha256"]

    def test_out_of_core_requires_a_cache_dir(self):
        with pytest.raises(ValueError, match="cache_dir"):
            run_budgeted_campaign(backend="out-of-core", **TOY)


class TestCli:
    ARGS = ["--scale", "0.01", "--days", "3", "--seed", "7"]

    def test_prints_a_json_record(self, capsys):
        assert main(self.ARGS) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["backend"] == "in_memory"
        assert "budget_mib" not in record

    def test_budget_gate_passes_under_a_generous_budget(self, capsys):
        assert main([*self.ARGS, "--budget-mib", "100000"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["within_budget"] is True

    def test_out_of_core_without_a_cache_dir_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*self.ARGS, "--backend", "out-of-core"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --backend out-of-core needs --cache-dir" in captured.err
        assert "Traceback" not in captured.err

    def test_budget_gate_fails_over_a_tiny_budget(self, capsys):
        assert main([*self.ARGS, "--budget-mib", "1"]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["within_budget"] is False
        assert "exceeds" in captured.err
