"""Tests for the ``repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import _make_engine, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "main_campaign"])
        assert args.command == "run"
        assert args.days is None
        assert args.router_count is None
        assert args.export_dir is None

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--scale", "0.02", "--seed", "7", "run", "usability"]
        )
        assert args.scale == 0.02
        assert args.seed == 7
        assert args.command == "run"

    def test_help_lists_one_front_end(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        usage = capsys.readouterr().out
        assert "{scenarios,run,cache,geo,grid,jobs,results}" in usage


class TestRunExport:
    def test_main_campaign_exports_every_figure(self, capsys, tmp_path):
        export_dir = tmp_path / "figures"
        exit_code = main(
            [
                "--scale", "0.01", "run", "main_campaign", "--days", "3",
                "--export-dir", str(export_dir),
            ]
        )
        assert exit_code == 0
        assert f"exported 20 files to {export_dir}" in capsys.readouterr().out
        csv_files = sorted(p.stem for p in export_dir.glob("*.csv"))
        json_files = sorted(p.stem for p in export_dir.glob("*.json"))
        assert csv_files == json_files == ["ablation_bridges"] + [
            f"figure_{n:02d}" for n in range(5, 14)
        ]
        payload = json.loads((export_dir / "figure_13.json").read_text())
        assert payload["figure_id"] == "figure_13"
        assert payload["series"]

    def test_exported_files_match_the_campaign_analyses(self, capsys, tmp_path):
        from repro.analysis.export import write_figure_csv, write_figure_json
        from repro.core import (
            asn_figure,
            asn_span_figure,
            blocking_curve,
            capacity_figure,
            country_figure,
            daily_population_figure,
            ip_churn_figure,
            longevity_figure,
            run_main_campaign,
            unknown_ip_figure,
        )

        export_dir = tmp_path / "run"
        argv = ["--scale", "0.01", "--seed", "5", "run", "main_campaign",
                "--days", "3", "--export-dir", str(export_dir)]
        assert main(argv) == 0
        capsys.readouterr()
        result = run_main_campaign(days=3, scale=0.01, seed=5)
        figures = [
            analysis(result.log)
            for analysis in (
                daily_population_figure,
                unknown_ip_figure,
                longevity_figure,
                ip_churn_figure,
                capacity_figure,
                country_figure,
                asn_figure,
                asn_span_figure,
            )
        ] + [blocking_curve(result)]
        direct = tmp_path / "direct"
        for figure in figures:
            for writer, suffix in ((write_figure_csv, "csv"), (write_figure_json, "json")):
                name = f"{figure.figure_id}.{suffix}"
                writer(figure, direct / name)
                assert (export_dir / name).read_bytes() == (direct / name).read_bytes()


class TestScenariosCommand:
    def test_scenarios_lists_registered_specs(self, capsys):
        exit_code = main(["scenarios"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        for name in (
            "main_campaign",
            "single_router",
            "bandwidth_sweep",
            "router_count_sweep",
            "figure_suite",
            "monitor_fraction_sweep",
            "country_blocking",
            "reseed_denial",
            "usability",
            "floodfill-takedown",
            "reseed-outage",
            "lossy-network",
        ):
            assert name in captured
        # At least ten registered specs are announced in the header.
        first_line = captured.splitlines()[0]
        assert int(first_line.split()[0]) >= 10

    def test_scenarios_footer_documents_fault_plans(self, capsys):
        assert main(["scenarios"]) == 0
        captured = capsys.readouterr().out
        assert "FaultPlan" in captured
        assert "crash_fraction" in captured


class TestRunCommand:
    def test_run_executes_a_scenario(self, capsys):
        exit_code = main(
            ["--scale", "0.01", "run", "monitor_fraction_sweep", "--days", "2"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario monitor_fraction_sweep" in captured
        assert "scenario_monitor_fraction" in captured
        assert "population build(s)" in captured

    def test_run_main_campaign_prints_summary(self, capsys):
        exit_code = main(["--scale", "0.01", "run", "main_campaign", "--days", "3"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Population (Section 5.1)" in captured
        assert "Table 1" in captured
        assert "figure_13" in captured

    def test_run_figure_suite_prints_summary_and_figures(self, capsys):
        exit_code = main(["--scale", "0.01", "run", "figure_suite", "--days", "4"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        # The campaign summary comes first, then Figures 2-4.
        assert captured.index("Population (Section 5.1)") < captured.index("figure_02")
        assert "figure_03" in captured
        assert "figure_04" in captured
        assert "Table 1" in captured
        assert "longevity_thresholds" in captured
        assert "ip_churn" in captured
        # One shared exposure serves the whole suite.
        assert "1 population build(s)" in captured

    def test_run_usability_prints_figure_14(self, capsys):
        exit_code = main(["--scale", "0.01", "run", "usability"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario usability [usability]" in captured
        assert "figure_14" in captured
        assert "10 fetches per blocking rate" in captured

    def test_run_unknown_scenario_fails_with_catalogue(self, capsys):
        exit_code = main(["run", "does-not-exist"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "main_campaign" in captured.err


class TestCacheCommandAndReuse:
    def test_second_run_hits_disk_cache(self, capsys):
        argv = ["--scale", "0.01", "run", "bandwidth_sweep", "--days", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "1 population build(s)" in first
        # Same process-external cache (REPRO_CACHE_DIR fixture), new engine:
        # the second run restores the population from npz instead of
        # rebuilding it.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 population build(s)" in second
        assert "1 disk hit(s)" in second

    def test_cache_ls_and_clear(self, capsys):
        assert main(["--scale", "0.01", "run", "bandwidth_sweep", "--days", "2"]) == 0
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        listing = capsys.readouterr().out
        assert "1 entr" in listing
        assert "days=2" in listing
        assert main(["cache", "clear"]) == 0
        assert "removed 1 cache entr(y/ies)" in capsys.readouterr().out
        assert main(["cache", "ls"]) == 0
        assert "0 entr" in capsys.readouterr().out

    def test_cache_ls_flags_older_format_bundles(self, capsys, tmp_path):
        assert main(["--scale", "0.01", "run", "bandwidth_sweep", "--days", "2"]) == 0
        capsys.readouterr()
        (meta_path,) = (tmp_path / "exposure-cache").glob("*/meta.json")
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 2
        meta_path.write_text(json.dumps(meta))
        assert main(["cache", "ls"]) == 0
        assert f"{meta_path.parent.name}  <stale format 2>" in capsys.readouterr().out
        assert main(["cache", "ls", "--json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["entries"]
        assert entry["error"] == "stale format 2"

    def test_no_cache_flag_disables_disk_cache(self, capsys):
        argv = ["--scale", "0.01", "--no-cache", "run", "bandwidth_sweep", "--days", "2"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        assert "0 entr" in capsys.readouterr().out
        assert main(["--no-cache", "cache", "ls"]) == 2

    def test_cache_ls_uses_human_readable_sizes(self, capsys):
        assert main(["--scale", "0.01", "run", "bandwidth_sweep", "--days", "2"]) == 0
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        listing = capsys.readouterr().out
        # Entry and total sizes are printed in binary units, not raw bytes.
        assert "KiB" in listing or "MiB" in listing

    def test_cache_ls_json(self, capsys):
        assert main(["--scale", "0.01", "run", "bandwidth_sweep", "--days", "2"]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_bytes"] > 0
        assert len(payload["entries"]) == 1
        entry = payload["entries"][0]
        assert entry["days"] == 2
        assert entry["bytes"] > 0
        assert "path" not in entry


class TestExposureBackendFlag:
    def test_out_of_core_backend_runs_and_caches(self, capsys):
        argv = [
            "--scale",
            "0.01",
            "--exposure-backend",
            "out-of-core",
            "run",
            "bandwidth_sweep",
            "--days",
            "2",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        assert "1 entr" in capsys.readouterr().out

    def test_out_of_core_with_no_cache_is_rejected(self, capsys):
        argv = [
            "--no-cache",
            "--exposure-backend",
            "out-of-core",
            "run",
            "bandwidth_sweep",
            "--days",
            "2",
        ]
        with pytest.raises(ValueError, match="cache_dir"):
            main(argv)

    def test_backend_env_variable_is_honoured(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXPOSURE_BACKEND", "out-of-core")
        assert main(["--scale", "0.01", "run", "bandwidth_sweep", "--days", "2"]) == 0
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        assert "1 entr" in capsys.readouterr().out

    def test_cache_max_bytes_flag_is_parsed(self, capsys):
        argv = [
            "--scale",
            "0.01",
            "--cache-max-bytes",
            "10G",
            "run",
            "bandwidth_sweep",
            "--days",
            "2",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        assert "1 entr" in capsys.readouterr().out

    def test_cache_max_bytes_env_reaches_the_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "2G")
        args = build_parser().parse_args(["run", "bandwidth_sweep"])
        assert _make_engine(args).max_bytes == 2 * 1024**3
        argv = ["--cache-max-bytes", "1G", "run", "bandwidth_sweep"]
        assert _make_engine(build_parser().parse_args(argv)).max_bytes == 1024**3

    def test_bad_cache_max_bytes_is_rejected(self):
        argv = ["--cache-max-bytes", "lots", "run", "bandwidth_sweep", "--days", "2"]
        with pytest.raises(ValueError, match="cache-max-bytes"):
            main(argv)


class TestRunCommandErrors:
    def test_run_invalid_days_override_fails_cleanly(self, capsys):
        exit_code = main(["run", "reseed_denial", "--days", "5"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "no day horizon" in captured.err

    def test_run_router_count_on_exposure_scenario_fails_cleanly(self, capsys):
        exit_code = main(["run", "main_campaign", "--router-count", "300"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "no simulated-network size" in captured.err

    @pytest.mark.parametrize("count", ["0", "-5", "1"])
    def test_run_non_positive_router_count_fails_cleanly(self, capsys, count):
        exit_code = main(["run", "netdb-scale", "--router-count", count])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.strip() == "router count must be at least 2"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scale", "0", "run", "main_campaign", "--days", "2"],
            ["--scale", "-1", "run", "bandwidth_sweep"],
            ["--scale", "nan", "run", "netdb-scale"],
            ["--scale", "0", "grid", "plan", "main_campaign"],
        ],
    )
    def test_non_positive_scale_fails_cleanly(self, capsys, argv):
        exit_code = main(argv)
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.strip() == "scale must be positive"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--scale", "0", "run", "main_campaign", "--days", "2"], "scale must be positive"),
            (["--scale", "0", "run", "figure_suite"], "scale must be positive"),
            (["--scale", "0", "run", "usability"], "scale must be positive"),
            (["--scale", "0", "run", "figure_suite", "--days", "2"], "scale must be positive"),
            (["--scale", "nan", "run", "main_campaign", "--days", "2"], "scale must be positive"),
            (["run", "main_campaign", "--days", "-3"], "days must be positive"),
            (["run", "usability", "--days", "0"], "days must be positive"),
            (["run", "figure_suite", "--days", "0"], "days must be positive"),
            (["run", "main_campaign", "--days", "0"], "days must be positive"),
        ],
    )
    def test_campaign_verbs_reject_bad_input_in_one_line(self, capsys, argv, message):
        exit_code = main(argv)
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.strip() == message
        assert captured.out == ""


class TestRunNetDbScale:
    def test_parser_accepts_router_count(self):
        args = build_parser().parse_args(["run", "netdb-scale", "--router-count", "60"])
        assert args.command == "run"
        assert args.scenario == "netdb-scale"
        assert args.router_count == 60

    def test_run_pinned_netdb_scale(self, capsys):
        exit_code = main(["run", "netdb-scale", "--router-count", "40"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario netdb-scale" in captured
        assert "scenario_netdb_scale" in captured
        assert "netdb_scale" in captured

    def test_profile_hook_dumps_pstats(self, capsys, tmp_path, monkeypatch):
        """REPRO_PROFILE=1 wraps the run in cProfile and writes a pstats
        file into $REPRO_PROFILE_DIR."""
        import pstats

        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "profiles"))
        exit_code = main(["run", "netdb-scale", "--router-count", "30"])
        captured = capsys.readouterr()
        assert exit_code == 0
        profile_path = tmp_path / "profiles" / "repro_profile_netdb-scale.pstats"
        assert profile_path.is_file()
        assert "profile written to" in captured.err
        # The dump must be loadable and contain the publish hot path.
        stats = pstats.Stats(str(profile_path))
        assert stats.total_calls > 0

    def test_profile_disabled_by_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PROFILE", "0")
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path))
        assert main(["run", "netdb-scale", "--router-count", "30"]) == 0
        capsys.readouterr()
        assert not list(tmp_path.glob("*.pstats"))


class TestRunFaultInjection:
    def test_run_pinned_floodfill_takedown(self, capsys):
        exit_code = main(["run", "floodfill-takedown", "--router-count", "40"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario floodfill-takedown" in captured
        assert "scenario_fault_injection" in captured
        assert "publish success ratio" in captured
        assert "netDb coverage" in captured
        assert "publish_success_min" in captured

    def test_run_pinned_lossy_network(self, capsys):
        exit_code = main(["run", "lossy-network", "--router-count", "40"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "store_drops_total" in captured

    def test_days_override_rejected_for_fault_scenarios(self, capsys):
        exit_code = main(["run", "lossy-network", "--days", "3"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "no day horizon" in captured.err


class TestGeoCommand:
    """``repro geo build-db`` / ``repro geo lookup`` and the provider flags."""

    @pytest.fixture()
    def compiled_db(self, tmp_path):
        from repro.enrichment import compile_range_db, rows_from_registry
        from repro.sim.geo import default_registry

        path = tmp_path / "registry.db"
        compile_range_db(rows_from_registry(default_registry()), path)
        return path

    def test_build_db_from_csv(self, capsys, tmp_path):
        source = tmp_path / "rows.csv"
        source.write_text("prefix,country,asn\n10.0.0.0/16,US,7922\n10.1.0.0/16,CN,4134\n")
        output = tmp_path / "geo.db"
        exit_code = main(["geo", "build-db", str(source), str(output)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert output.exists()
        assert "compiled 2 range(s) from 2 source row(s)" in captured

    def test_build_db_rejects_malformed_source(self, capsys, tmp_path):
        source = tmp_path / "rows.csv"
        source.write_text("not,a,valid,row,at,all\n")
        exit_code = main(["geo", "build-db", str(source), str(tmp_path / "geo.db")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "\n" not in captured.err.strip()

    def test_lookup_default_synthetic_provider(self, capsys):
        exit_code = main(["geo", "lookup", "24.0.1.1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "country=US" in captured
        assert "asn=7922" in captured
        assert "prefix=24.0.0.0/16" in captured
        assert "provider=synthetic" in captured

    def test_lookup_json_payload(self, capsys, compiled_db):
        exit_code = main(
            ["--geo-db", str(compiled_db), "geo", "lookup", "24.0.1.1", "--json"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        payload = json.loads(captured)
        assert payload["country"] == "US"
        assert payload["asn"] == 7922
        assert payload["prefix"] == "24.0.0.0/16"
        assert payload["provider"] == "range-db"
        assert "tier" not in payload

    def test_lookup_follows_a_swapped_geo_db_in_the_same_cache_dir(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        source = tmp_path / "swapped.csv"
        source.write_text("prefix,country,asn\n24.0.0.0/16,RU,65001\n")
        swapped = tmp_path / "swapped.db"
        assert main(["geo", "build-db", str(source), str(swapped)]) == 0
        capsys.readouterr()
        assert main(["geo", "lookup", "24.0.1.1", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        argv = ["--geo-db", str(swapped), "geo", "lookup", "24.0.1.1", "--json"]
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert (first["country"], first["asn"]) == ("US", 7922)
        assert (second["country"], second["asn"]) == ("RU", 65001)
        assert second["provider"] == "range-db"

    def test_lookup_invalid_ip_fails_cleanly(self, capsys):
        exit_code = main(["geo", "lookup", "not-an-ip"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "not a valid IP address" in captured.err

    def test_range_db_without_database_fails_cleanly(self, capsys):
        exit_code = main(["--geo-provider", "range-db", "geo", "lookup", "24.0.1.1"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--geo-db" in captured.err

    def test_missing_database_file_fails_cleanly(self, capsys, tmp_path):
        exit_code = main(
            ["--geo-db", str(tmp_path / "absent.db"), "geo", "lookup", "24.0.1.1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "not found" in captured.err

    def test_run_prefix_blocking_scenario(self, capsys):
        exit_code = main(
            ["--scale", "0.02", "--seed", "41", "run", "prefix-blocking", "--days", "3"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario_prefix_blocking" in captured
        assert "censors by rank" in captured
        assert "total_prefixes" in captured

    def test_run_prefix_blocking_with_range_db_matches_synthetic(self, capsys, compiled_db):
        # --no-cache keeps the cache-statistics footer identical between runs.
        base_args = ["--scale", "0.02", "--seed", "41", "--no-cache"]
        assert main(base_args + ["run", "prefix-blocking", "--days", "3"]) == 0
        synthetic_out = capsys.readouterr().out
        assert (
            main(
                base_args
                + ["--geo-db", str(compiled_db), "run", "prefix-blocking", "--days", "3"]
            )
            == 0
        )
        range_db_out = capsys.readouterr().out
        assert synthetic_out == range_db_out
