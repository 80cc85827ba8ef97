"""Tests of the machine-readable simulator benchmark harness."""

import pytest

from repro.experiments.bench import (
    BENCH_SCENARIOS,
    attach_baseline,
    bench_to_text,
    load_baseline,
    run_bench,
    write_bench,
)
from repro.utils import ValidationError


@pytest.fixture(scope="module")
def smoke_payload():
    """One tiny measured run, shared by the read-only assertions."""
    return run_bench(("heterogeneous",), points=2, smoke=True)


class TestRunBench:
    def test_payload_schema(self, smoke_payload):
        assert smoke_payload["schema"] == 1
        assert smoke_payload["smoke"] is True
        assert smoke_payload["points"] == 2
        assert set(smoke_payload["scenarios"]) == {"heterogeneous"}

    def test_smoke_budget_is_tiny_but_counted(self, smoke_payload):
        entry = smoke_payload["scenarios"]["heterogeneous"]
        assert entry["measured_messages"] == 2 * 200
        assert entry["wall_clock_seconds"] > 0
        # messages_per_second is computed from the unrounded wall clock, so
        # the stored (rounded) fields reproduce it only approximately.
        assert entry["messages_per_second"] == pytest.approx(
            entry["measured_messages"] / entry["wall_clock_seconds"], rel=0.05
        )

    def test_scenario_entries_report_events_and_timing_split(self, smoke_payload):
        from repro.sim.simulator import DEFAULT_KERNEL

        entry = smoke_payload["scenarios"]["heterogeneous"]
        assert entry["kernel"] == DEFAULT_KERNEL
        assert entry["events_processed"] > entry["measured_messages"]
        assert entry["events_per_second"] > 0
        # The split: run (event loop) + collect (state construction and
        # statistics) make up the sweep's elapsed time; setup is separate.
        assert entry["run_seconds"] == entry["wall_clock_seconds"]
        assert entry["collect_seconds"] >= 0
        assert entry["run_seconds"] + entry["collect_seconds"] == pytest.approx(
            entry["elapsed_seconds"], abs=0.01
        )
        assert entry["setup_seconds"] >= 0

    def test_kernel_rungs_compare_generator_and_vectorized(self, smoke_payload):
        from repro.experiments.bench import BENCH_KERNELS

        rungs = smoke_payload["kernels"]
        assert BENCH_KERNELS == ("generator", "vectorized")
        assert [rung["kernel"] for rung in rungs] == list(BENCH_KERNELS)
        generator, vectorized = rungs
        assert generator["scenario"] == vectorized["scenario"] == "heterogeneous"
        # Matched budget: same operating point, same measured messages.
        assert generator["lambda_g"] == vectorized["lambda_g"]
        assert generator["measured_messages"] == vectorized["measured_messages"]
        assert generator["speedup"] == pytest.approx(1.0)
        assert vectorized["speedup"] == pytest.approx(
            generator["wall_clock_seconds"] / vectorized["wall_clock_seconds"],
            rel=0.05,
        )
        for rung in rungs:
            assert rung["events_per_second"] > 0
            assert rung["wall_clock_seconds"] > 0

    def test_default_scenario_set_is_the_fixed_one(self):
        assert BENCH_SCENARIOS == ("fig3", "fig4", "heterogeneous")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError):
            run_bench(("no-such-scenario",), points=1, smoke=True)


class TestBaselineAttachment:
    def test_speedup_ratios(self, smoke_payload):
        baseline = {
            "scenarios": {
                "heterogeneous": {
                    "messages_per_second": smoke_payload["scenarios"]["heterogeneous"][
                        "messages_per_second"
                    ]
                    / 2.0
                }
            }
        }
        merged = attach_baseline(dict(smoke_payload), baseline, label="half-speed")
        assert merged["speedup"]["heterogeneous"] == pytest.approx(2.0, abs=0.01)
        assert merged["baseline"]["label"] == "half-speed"

    def test_missing_scenarios_are_skipped(self, smoke_payload):
        merged = attach_baseline(dict(smoke_payload), {"scenarios": {}}, label="empty")
        assert merged["speedup"] == {}

    def test_round_trip_through_disk(self, smoke_payload, tmp_path):
        path = write_bench(smoke_payload, tmp_path / "bench.json")
        loaded = load_baseline(path)
        assert loaded["scenarios"] == smoke_payload["scenarios"]

    def test_non_object_baseline_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValidationError):
            load_baseline(path)


class TestBenchText:
    def test_text_mentions_smoke_and_scenarios(self, smoke_payload):
        text = bench_to_text(smoke_payload)
        assert "smoke" in text
        assert "heterogeneous" in text

    def test_text_reports_speedup_when_compared(self, smoke_payload):
        merged = attach_baseline(
            dict(smoke_payload),
            {"scenarios": {"heterogeneous": {"messages_per_second": 1.0}}},
            label="tiny",
        )
        assert "x vs tiny" in bench_to_text(merged)


class TestParallelBench:
    def test_parallel_payload_records_workers_and_matches_sequential(self):
        sequential = run_bench(("heterogeneous",), points=2, smoke=True)
        parallel = run_bench(
            ("heterogeneous",), points=2, smoke=True, parallel=True, workers=2
        )
        assert parallel["parallel"] is True
        assert parallel["workers"] == 2
        assert parallel["fan_out"] == "scenario"
        assert sequential["parallel"] is False
        assert sequential["workers"] == 1
        assert "scaling" not in sequential
        # The per-scenario trajectory entries are always measured
        # sequentially so messages/sec stays comparable across PRs; the
        # shared-pool fan-out is recorded in the scaling curve instead.
        seq_entry = sequential["scenarios"]["heterogeneous"]
        par_entry = parallel["scenarios"]["heterogeneous"]
        assert par_entry["workers"] == 1
        assert seq_entry["workers"] == 1
        assert par_entry["measured_messages"] == seq_entry["measured_messages"]
        assert par_entry["elapsed_seconds"] > 0
        assert seq_entry["elapsed_seconds"] > 0

    def test_parallel_payload_records_speedup_vs_workers_curve(self):
        payload = run_bench(
            ("heterogeneous",), points=2, smoke=True, parallel=True, workers=2
        )
        curve = payload["scaling"]
        cold = [rung for rung in curve if rung["mode"] == "cold"]
        daemon = [rung for rung in curve if rung["mode"] == "daemon"]
        assert [rung["workers"] for rung in cold] == [1, 2]
        # One warm-daemon rung at the top worker count closes the curve.
        assert [rung["workers"] for rung in daemon] == [2]
        assert curve[-1] is daemon[0]
        assert daemon[0]["warmup_seconds"] > 0
        total = payload["scenarios"]["heterogeneous"]["measured_messages"]
        for rung in curve:
            # Bit-identical executions at every rung: same messages measured.
            assert rung["measured_messages"] == total
            assert rung["elapsed_seconds"] > 0
            assert rung["messages_per_second"] > 0
            assert rung["speedup"] > 0
        assert curve[0]["speedup"] == pytest.approx(1.0)
        # Cold rungs compare against the sequential baseline; the daemon
        # rung compares warm-service vs the cold rung at the same width and
        # carries the sequential ratio separately.  Speedups are defined on
        # the recorded elapsed times, so they match up to their 2-dp
        # rounding whatever the timings were.
        assert cold[1]["speedup"] == pytest.approx(
            curve[0]["elapsed_seconds"] / cold[1]["elapsed_seconds"], abs=0.0051
        )
        assert daemon[0]["speedup"] == pytest.approx(
            cold[1]["elapsed_seconds"] / daemon[0]["elapsed_seconds"], abs=0.0051
        )
        assert daemon[0]["speedup_vs_sequential"] == pytest.approx(
            curve[0]["elapsed_seconds"] / daemon[0]["elapsed_seconds"], abs=0.0051
        )

    def test_scenario_fan_out_shares_one_pool_across_scenarios(self):
        payload = run_bench(
            ("heterogeneous", "hotspot"), points=1, smoke=True, parallel=True, workers=2
        )
        # Two one-point scenarios: only scenario-level fan-out can use two
        # workers at all (point-level fan-out would cap at one task each).
        assert payload["workers"] == 2
        assert payload["fan_out"] == "scenario"
        assert [(rung["workers"], rung["mode"]) for rung in payload["scaling"]] == [
            (1, "cold"),
            (2, "cold"),
            (2, "daemon"),
        ]
        total = sum(
            entry["measured_messages"] for entry in payload["scenarios"].values()
        )
        assert payload["scaling"][-1]["measured_messages"] == total

    def test_parallel_text_mentions_workers_and_curve(self):
        payload = run_bench(
            ("heterogeneous",), points=2, smoke=True, parallel=True, workers=2
        )
        text = bench_to_text(payload)
        assert "2 workers" in text
        assert "scenario fan-out" in text
        assert "1 worker" in text
        assert "daemon" in text

    def test_worker_ladder_doubles_to_the_effective_count(self):
        from repro.experiments.bench import _worker_ladder

        assert _worker_ladder(1) == [1]
        assert _worker_ladder(2) == [1, 2]
        assert _worker_ladder(4) == [1, 2, 4]
        assert _worker_ladder(6) == [1, 2, 4, 6]


class TestDiffBenchScript:
    """The CI regression gate over BENCH_simulator.json payloads."""

    @staticmethod
    def _diff():
        import importlib.util
        from pathlib import Path

        script = Path(__file__).resolve().parents[2] / "benchmarks" / "diff_bench.py"
        spec = importlib.util.spec_from_file_location("diff_bench", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_within_tolerance_passes(self):
        diff_bench = self._diff()
        committed = {"scenarios": {"fig3": {"messages_per_second": 100.0}}}
        fresh = {"scenarios": {"fig3": {"messages_per_second": 80.0}}}
        assert diff_bench.diff_payloads(fresh, committed, 0.30) == []

    def test_regression_beyond_tolerance_reported(self):
        diff_bench = self._diff()
        committed = {"scenarios": {"fig3": {"messages_per_second": 100.0}}}
        fresh = {"scenarios": {"fig3": {"messages_per_second": 60.0}}}
        regressions = diff_bench.diff_payloads(fresh, committed, 0.30)
        assert len(regressions) == 1
        assert "fig3" in regressions[0]

    def test_missing_scenario_reported(self):
        diff_bench = self._diff()
        committed = {"scenarios": {"fig4": {"messages_per_second": 10.0}}}
        regressions = diff_bench.diff_payloads({"scenarios": {}}, committed, 0.30)
        assert regressions == ["fig4: missing from the fresh payload"]

    def test_kernel_gate_passes_at_speedup(self):
        diff_bench = self._diff()
        fresh = {
            "scenarios": {"fig3": {}},
            "kernels": [
                {"scenario": "fig3", "kernel": "generator", "speedup": 1.0},
                {
                    "scenario": "fig3",
                    "kernel": "vectorized",
                    "speedup": diff_bench.KERNEL_GATE_MIN + 0.1,
                },
            ],
        }
        assert diff_bench.check_kernel_gate(fresh) == []

    def test_kernel_gate_fails_below_minimum(self):
        diff_bench = self._diff()
        below = diff_bench.KERNEL_GATE_MIN - 0.1
        fresh = {
            "scenarios": {"fig3": {}},
            "kernels": [
                {"scenario": "fig3", "kernel": "generator", "speedup": 1.0},
                {"scenario": "fig3", "kernel": "vectorized", "speedup": below},
            ],
        }
        failures = diff_bench.check_kernel_gate(fresh)
        assert len(failures) == 1 and f"{below:.2f}x" in failures[0]
        assert f"generator kernel (gate {diff_bench.KERNEL_GATE_MIN:.1f}x" in failures[0]

    def test_kernel_gate_fails_when_rung_is_missing(self):
        diff_bench = self._diff()
        fresh = {"scenarios": {"fig3": {}}, "kernels": []}
        assert diff_bench.check_kernel_gate(fresh) == [
            "fig3: fresh payload has no vectorized kernel rung"
        ]

    def test_kernel_gate_skips_payloads_not_covering_the_scenario(self):
        diff_bench = self._diff()
        assert diff_bench.check_kernel_gate({"scenarios": {"fig4": {}}}) == []

    def test_cli_entry_point_round_trips(self, tmp_path):
        diff_bench = self._diff()
        import json

        committed = tmp_path / "committed.json"
        fresh = tmp_path / "fresh.json"
        kernels = [
            {"scenario": "fig3", "kernel": "generator", "speedup": 1.0},
            {
                "scenario": "fig3",
                "kernel": "vectorized",
                "speedup": diff_bench.KERNEL_GATE_MIN + 0.5,
            },
        ]
        committed.write_text(
            json.dumps({"scenarios": {"fig3": {"messages_per_second": 100.0}}})
        )
        fresh.write_text(
            json.dumps(
                {
                    "scenarios": {"fig3": {"messages_per_second": 95.0}},
                    "kernels": kernels,
                }
            )
        )
        assert (
            diff_bench.main(
                ["--fresh", str(fresh), "--committed", str(committed)]
            )
            == 0
        )
        fresh.write_text(
            json.dumps({"scenarios": {"fig3": {"messages_per_second": 10.0}}})
        )
        assert (
            diff_bench.main(
                ["--fresh", str(fresh), "--committed", str(committed)]
            )
            == 1
        )

    def test_mismatched_budgets_refused(self):
        diff_bench = self._diff()
        import pytest as _pytest

        fresh = {"budget": "quick", "points": 2, "smoke": True, "scenarios": {}}
        committed = {"budget": "default", "points": 3, "smoke": False, "scenarios": {}}
        with _pytest.raises(SystemExit, match="not comparable"):
            diff_bench.check_comparable(fresh, committed)
