"""Tests of the command-line interface (model-only paths for speed)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = {
            action.dest: action
            for action in parser._subparsers._group_actions  # noqa: SLF001 - argparse introspection
        }
        choices = set(actions["command"].choices)
        assert {
            "run",
            "table1",
            "fig3",
            "fig4",
            "sweep",
            "saturation",
            "ablation",
            "report",
            "bench",
            "campaign",
            "serve",
        } <= choices

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "1120" in output and "544" in output

    def test_saturation(self, capsys):
        assert main(["saturation", "--nodes", "544"]) == 0
        output = capsys.readouterr().out
        assert "saturation offered traffic" in output

    def test_fig4_model_only(self, capsys):
        assert main(["fig4", "--no-sim", "--points", "3"]) == 0
        output = capsys.readouterr().out
        assert "Lm=256" in output and "Lm=512" in output

    def test_fig3_model_only_with_csv(self, tmp_path, capsys):
        assert main(["fig3", "--no-sim", "--points", "3", "--csv-dir", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("fig3_*.csv"))) == 4
        assert "wrote:" in capsys.readouterr().out

    def test_sweep_model_only(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--ports",
                "4",
                "--heights",
                "1",
                "2",
                "2",
                "1",
                "--max-traffic",
                "1e-3",
                "--points",
                "3",
                "--no-sim",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        assert "model_latency" in capsys.readouterr().out

    def test_sweep_with_quick_simulation(self, capsys):
        code = main(
            [
                "sweep",
                "--ports",
                "4",
                "--heights",
                "1",
                "1",
                "1",
                "1",
                "--max-traffic",
                "4e-4",
                "--points",
                "2",
                "--budget",
                "quick",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sim_latency" in output

    def test_sweep_invalid_organisation_reports_error(self, capsys):
        code = main(
            [
                "sweep",
                "--ports",
                "4",
                "--heights",
                "1",
                "1",
                "1",
                "--max-traffic",
                "1e-3",
                "--no-sim",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_ablation(self, capsys):
        assert main(["ablation", "--nodes", "544", "--points", "3"]) == 0
        output = capsys.readouterr().out
        assert "equal-size approximation" in output
        assert "zero-variance" in output

    def test_report_model_only_to_file(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.generated.md"
        assert main(["report", "--no-sim", "--points", "3", "--output", str(target)]) == 0
        assert target.exists()
        content = target.read_text()
        assert "Figure 3" in content and "Figure 4" in content


class TestRunCommand:
    def test_list_scenarios(self, capsys):
        assert main(["run", "--list"]) == 0
        output = capsys.readouterr().out
        for name in ("fig3", "fig4", "table1/1120", "table1/544", "hotspot", "heterogeneous"):
            assert name in output

    def test_run_requires_a_scenario(self, capsys):
        assert main(["run"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_unknown_scenario_reports_error(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_malformed_scenario_file_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus": 1}')
        assert main(["run", str(bad)]) == 2
        assert "invalid scenario file" in capsys.readouterr().err

    def test_run_named_scenario_model_only(self, capsys):
        assert main(["run", "heterogeneous", "--engines", "model", "--points", "3"]) == 0
        output = capsys.readouterr().out
        assert "model_latency" in output
        assert "heterogeneous" in output

    def test_run_save_scenario_then_replay_from_file(self, tmp_path, capsys):
        saved = tmp_path / "scenario.json"
        assert (
            main(
                [
                    "run",
                    "heterogeneous",
                    "--engines",
                    "model",
                    "--points",
                    "2",
                    "--save-scenario",
                    str(saved),
                ]
            )
            == 0
        )
        assert saved.exists()
        capsys.readouterr()
        assert main(["run", str(saved), "--engines", "model"]) == 0
        assert "model_latency" in capsys.readouterr().out

    def test_run_replay_keeps_the_saved_sim_config(self, tmp_path, capsys):
        """A replayed scenario file keeps its saved budget/seed unless overridden."""
        from repro import api
        from repro.cli import _resolve_run_scenario, build_parser

        saved = tmp_path / "paper.json"
        api.scenario("heterogeneous", points=2, budget="paper", seed=7).to_json(saved)
        args = build_parser().parse_args(["run", str(saved)])
        scenario = _resolve_run_scenario(args)
        assert scenario.sim.measured_messages == 100_000
        assert scenario.sim.seed == 7
        # Explicit flags still override the file for replays.
        args = build_parser().parse_args(["run", str(saved), "--budget", "quick"])
        assert _resolve_run_scenario(args).sim.measured_messages == 1_500
        assert _resolve_run_scenario(args).sim.seed == 7
        args = build_parser().parse_args(["run", str(saved), "--seed", "11"])
        replayed = _resolve_run_scenario(args)
        assert replayed.sim.measured_messages == 100_000
        assert replayed.sim.seed == 11

    def test_run_with_simulation_writes_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "run.csv"
        json_path = tmp_path / "run.json"
        code = main(
            [
                "run",
                "heterogeneous",
                "--points",
                "2",
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        assert csv_path.exists() and json_path.exists()
        output = capsys.readouterr().out
        assert "sim_latency" in output
        assert "mean |relative error|" in output

    def test_bench_smoke_writes_artifact(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_simulator.json"
        assert main(["bench", "--smoke", "--points", "2", "--output", str(out_path)]) == 0
        output = capsys.readouterr().out
        assert "simulator benchmark" in output
        assert "smoke" in output
        payload = json.loads(out_path.read_text())
        assert payload["smoke"] is True
        assert set(payload["scenarios"]) == {"fig3", "fig4", "heterogeneous"}
        for entry in payload["scenarios"].values():
            assert entry["messages_per_second"] > 0
            assert entry["measured_messages"] == 2 * 200

    def test_bench_with_baseline_reports_speedup(self, tmp_path, capsys):
        import json

        baseline_path = tmp_path / "baseline.json"
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--points", "2", "--output", str(baseline_path)]) == 0
        capsys.readouterr()
        code = main(
            [
                "bench",
                "--smoke",
                "--points",
                "2",
                "--baseline",
                str(baseline_path),
                "--baseline-label",
                "previous",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert "x vs previous" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert set(payload["speedup"]) == {"fig3", "fig4", "heterogeneous"}
        assert payload["baseline"]["label"] == "previous"

    def test_bench_missing_baseline_reports_error(self, tmp_path, capsys):
        code = main(
            ["bench", "--smoke", "--baseline", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "baseline file not found" in capsys.readouterr().err


class TestCampaignCommand:
    @staticmethod
    def _tiny_plan(tmp_path):
        """A two-scenario plan small enough for a unit test."""
        import json

        plan = {
            "name": "cli-test",
            "entries": [
                {"scenario": "heterogeneous", "points": 2, "budget": "quick", "seed": 0},
                {
                    "scenario": "heterogeneous",
                    "points": 2,
                    "budget": "quick",
                    "seed": 1,
                    "label": "reseeded",
                    "engines": ["model", "sim"],
                },
            ],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return path

    def test_example_writes_a_runnable_plan(self, tmp_path, capsys):
        import json

        plan_path = tmp_path / "plan.json"
        assert main(["campaign", "example", str(plan_path), "--points", "2"]) == 0
        assert plan_path.exists()
        plan = json.loads(plan_path.read_text())
        assert [entry["scenario"] for entry in plan["entries"]] == [
            "heterogeneous",
            "hotspot",
        ]
        assert "campaign run" in capsys.readouterr().out

    def test_run_cold_then_warm_hits_the_store(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        plan = self._tiny_plan(tmp_path)
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        assert main(["campaign", "run", str(plan), "--json", str(cold_json)]) == 0
        cold_out = capsys.readouterr().out
        assert "0 cached, 8 computed" in cold_out
        assert (
            main(
                ["campaign", "run", str(plan), "--progress", "--json", str(warm_json)]
            )
            == 0
        )
        warm_out = capsys.readouterr().out
        assert "8 cached, 0 computed" in warm_out
        assert "(cache" in warm_out  # per-task streaming lines
        cold = json.loads(cold_json.read_text())
        warm = json.loads(warm_json.read_text())
        assert json.dumps(cold["runsets"], sort_keys=True) == json.dumps(
            warm["runsets"], sort_keys=True
        )
        assert warm["execution"]["cache_hits"] == warm["execution"]["tasks"] == 8

    def test_run_no_store_computes_fresh(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        plan = self._tiny_plan(tmp_path)
        assert main(["campaign", "run", str(plan), "--no-store"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", str(plan), "--no-store"]) == 0
        assert "0 cached, 8 computed" in capsys.readouterr().out

    def test_run_missing_plan_reports_error(self, tmp_path, capsys):
        assert main(["campaign", "run", str(tmp_path / "nope.json")]) == 2
        assert "campaign plan not found" in capsys.readouterr().err

    def test_run_malformed_plan_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"entries": [{"scenario": 12}]}')
        assert main(["campaign", "run", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_store_subcommand_reports_clears_and_prunes(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        plan = self._tiny_plan(tmp_path)
        assert main(["campaign", "run", str(plan)]) == 0
        capsys.readouterr()
        assert main(["campaign", "store"]) == 0
        assert "8 records" in capsys.readouterr().out
        assert main(["campaign", "store", "--prune", "3"]) == 0
        out = capsys.readouterr().out
        assert "pruned 5 records" in out
        assert "3 records" in out
        assert main(["campaign", "store", "--clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 3 records" in out
        assert "0 records" in out

    def test_store_explicit_path_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        assert main(["campaign", "store", "--store", str(tmp_path / "explicit")]) == 0
        assert "explicit" in capsys.readouterr().out

    def test_progress_bar_renders_per_scenario_counts(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        plan = self._tiny_plan(tmp_path)
        assert main(["campaign", "run", str(plan), "--progress=bar"]) == 0
        out = capsys.readouterr().out
        assert "[" in out and "#" in out  # the bar itself
        assert "heterogeneous 4/4" in out  # per-scenario completion
        assert "reseeded 4/4" in out
        assert "8/8" in out  # campaign aggregate

    def test_store_migrate_round_trip_keeps_cache_hits(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
        plan = self._tiny_plan(tmp_path)
        assert main(["campaign", "run", str(plan), "--json", str(tmp_path / "cold.json")]) == 0
        capsys.readouterr()
        assert main(["campaign", "store", "--migrate", "sqlite"]) == 0
        out = capsys.readouterr().out
        assert "migrated 8 records" in out and "[sqlite]" in out
        assert (tmp_path / "store" / "store.db").exists()
        assert main(["campaign", "run", str(plan), "--json", str(tmp_path / "warm.json")]) == 0
        assert "8 cached, 0 computed" in capsys.readouterr().out
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        assert json.dumps(cold["runsets"], sort_keys=True) == json.dumps(
            warm["runsets"], sort_keys=True
        )
        assert warm["execution"]["store_backend"] == "sqlite"
        assert main(["campaign", "store", "--migrate", "directory"]) == 0
        out = capsys.readouterr().out
        assert "migrated 8 records" in out and "[directory]" in out
        assert not (tmp_path / "store" / "store.db").exists()

    def test_run_survives_injected_worker_crash(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        plan = self._tiny_plan(tmp_path)
        marker = tmp_path / "crash-marker"
        monkeypatch.setenv(
            "REPRO_CAMPAIGN_FAULT",
            json.dumps(
                {"kind": "crash", "task": "heterogeneous:sim:0", "marker": str(marker)}
            ),
        )
        result_json = tmp_path / "crashed.json"
        assert (
            main(
                [
                    "campaign", "run", str(plan),
                    "--parallel", "--workers", "2",
                    "--retries", "3", "--progress",
                    "--json", str(result_json),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert marker.exists()
        assert "[retry]" in out and "worker crashed" in out
        assert "retries" in out
        execution = json.loads(result_json.read_text())["execution"]
        assert execution["task_retries"] >= 1
        assert execution["failures"] == []
        assert execution["cache_misses"] == 8

    def test_run_exhausted_retries_exit_code_and_allow_failures(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        plan = self._tiny_plan(tmp_path)

        def arm_fault(marker_name):
            monkeypatch.setenv(
                "REPRO_CAMPAIGN_FAULT",
                json.dumps(
                    {
                        "kind": "crash",
                        "task": "heterogeneous:sim:0",
                        "marker": str(tmp_path / marker_name),
                    }
                ),
            )

        # Strict (the default): exhausted retries exit 3 with the failure list.
        arm_fault("strict-marker")
        assert (
            main(
                ["campaign", "run", str(plan), "--no-store",
                 "--parallel", "--workers", "2"]
            )
            == 3
        )
        err = capsys.readouterr().err
        assert "failed after exhausting retries" in err
        # --allow-failures: exit 0, partial tables, failures in the JSON.
        arm_fault("lenient-marker")
        result_json = tmp_path / "partial.json"
        assert (
            main(
                ["campaign", "run", str(plan), "--no-store",
                 "--parallel", "--workers", "2",
                 "--allow-failures", "--json", str(result_json)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "PARTIAL" in out and "FAILED" in out
        payload = json.loads(result_json.read_text())
        assert payload["execution"]["failures"]
        for failure in payload["execution"]["failures"]:
            assert failure["attempts"] == 1



class TestServeCommand:
    """Parser-level coverage; the served byte stream is exercised end to end
    in tests/service/test_server.py (main(["serve"]) would block)."""

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.workers is None
        assert args.retries == 1
        assert args.no_store is False
        assert args.store is None and args.backend is None

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--host", "0.0.0.0",
                "--port", "0",
                "--workers", "4",
                "--no-store",
                "--retries", "3",
            ]
        )
        assert args.port == 0 and args.workers == 4
        assert args.retries == 3
        assert args.no_store

    def test_serve_rejects_a_zero_retry_budget(self, capsys):
        assert main(["serve", "--retries", "0"]) == 2
        assert "retries" in capsys.readouterr().err
