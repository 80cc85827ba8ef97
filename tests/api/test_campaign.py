"""Tests of the Campaign API: plans, streaming execution, store-backed re-runs."""

import json
from pathlib import Path

import pytest

from repro import api
from repro.campaign import (
    Campaign,
    CampaignEntry,
    CampaignExecutor,
    CampaignProgress,
    TaskCompleted,
    resolve_store,
    result_payload,
    run_campaign,
)
from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.store import ResultStore, jsonable_record
from repro.topology.multicluster import MultiClusterSpec
from repro.utils.serialization import to_jsonable
from repro.utils.validation import ValidationError

TINY = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")
WIDE = MultiClusterSpec(m=4, cluster_heights=(1, 1, 1, 1), name="wide")
FAST = SimulationConfig(measured_messages=300, warmup_messages=30, drain_messages=30, seed=3)


def scenario_for(system, *, traffic=(4e-4, 8e-4), name="") -> api.Scenario:
    return api.Scenario(
        system=system,
        message=MessageSpec(32, 256),
        offered_traffic=traffic,
        sim=FAST,
        name=name or system.name,
    )


def two_scenario_campaign(**executor_ignored) -> Campaign:
    return Campaign(
        entries=(
            CampaignEntry(scenario=scenario_for(TINY), engines=("model", "sim")),
            CampaignEntry(scenario=scenario_for(WIDE), engines=("model", "sim")),
        ),
        name="two",
    )


class TestCampaignValidation:
    def test_empty_campaign_rejected(self):
        with pytest.raises(ValidationError):
            Campaign(entries=())

    def test_entry_without_engines_rejected(self):
        with pytest.raises(ValidationError):
            CampaignEntry(scenario=scenario_for(TINY), engines=())

    def test_entry_with_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            CampaignEntry(scenario=scenario_for(TINY, traffic=()))

    def test_unknown_engine_name_rejected(self):
        with pytest.raises(ValidationError):
            CampaignEntry(scenario=scenario_for(TINY), engines=("warp-drive",))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            Campaign(
                entries=(
                    CampaignEntry(scenario=scenario_for(TINY), label="same"),
                    CampaignEntry(scenario=scenario_for(WIDE), label="same"),
                )
            )

    def test_labels_fall_back_to_scenario_names_then_indices(self):
        nameless = api.Scenario(
            system=TINY, offered_traffic=(4e-4,), sim=FAST, name=""
        )
        campaign = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY), label="explicit"),
                CampaignEntry(scenario=scenario_for(WIDE)),
                CampaignEntry(scenario=nameless),
            )
        )
        assert campaign.labels == ("explicit", "wide", "entry2")

    def test_total_tasks_counts_engines_times_points(self):
        assert two_scenario_campaign().total_tasks == 2 * 2 * 2

    def test_bad_store_argument_rejected(self):
        with pytest.raises(ValidationError):
            CampaignExecutor(two_scenario_campaign(), store="nope")


class TestCampaignJson:
    def test_dict_round_trip_is_identity(self):
        campaign = two_scenario_campaign()
        assert Campaign.from_dict(campaign.to_dict()) == campaign

    def test_file_round_trip_is_identity(self, tmp_path):
        campaign = two_scenario_campaign()
        path = campaign.to_json(tmp_path / "plan.json")
        assert Campaign.from_json(path) == campaign

    def test_named_scenario_entries_resolve_through_the_registry(self):
        campaign = Campaign.from_dict(
            {
                "name": "named",
                "entries": [
                    {"scenario": "heterogeneous", "points": 3, "budget": "quick", "seed": 4},
                    {"scenario": "fig4", "points": 2, "engines": ["model"]},
                ],
            }
        )
        assert campaign.labels == ("heterogeneous", "fig4")
        first = campaign.entries[0].scenario
        assert len(first.offered_traffic) == 3
        assert first.sim.seed == 4
        assert campaign.entries[1].engines == ("model",)

    def test_budget_override_applies_to_full_scenario_entries(self):
        plan = {
            "entries": [
                {
                    "scenario": scenario_for(TINY).to_dict(),
                    "budget": "paper",
                    "seed": 11,
                }
            ]
        }
        campaign = Campaign.from_dict(plan)
        scenario = campaign.entries[0].scenario
        assert scenario.sim.measured_messages == 100_000
        assert scenario.sim.seed == 11

    def test_points_override_applies_to_full_scenario_entries(self):
        plan = {"entries": [{"scenario": scenario_for(TINY).to_dict(), "points": 5}]}
        scenario = Campaign.from_dict(plan).entries[0].scenario
        assert len(scenario.offered_traffic) == 5
        assert max(scenario.offered_traffic) == pytest.approx(8e-4)

    def test_seed_override_alone_keeps_the_budget(self):
        plan = {"entries": [{"scenario": scenario_for(TINY).to_dict(), "seed": 42}]}
        scenario = Campaign.from_dict(plan).entries[0].scenario
        assert scenario.sim.seed == 42
        assert scenario.sim.measured_messages == FAST.measured_messages

    def test_engine_instances_refuse_to_serialise(self):
        campaign = Campaign(
            entries=(
                CampaignEntry(
                    scenario=scenario_for(TINY), engines=(api.AnalyticalEngine(),)
                ),
            )
        )
        with pytest.raises(ValidationError):
            campaign.to_dict()

    def test_malformed_plans_rejected(self):
        with pytest.raises(ValidationError):
            Campaign.from_dict({"no": "entries"})
        with pytest.raises(ValidationError):
            Campaign.from_dict({"entries": [{"engines": ["model"]}]})
        with pytest.raises(ValidationError):
            Campaign.from_dict({"entries": [{"scenario": 17}]})
        with pytest.raises(ValidationError):
            Campaign.from_dict({"name": 5, "entries": [{"scenario": "heterogeneous"}]})

    @pytest.mark.parametrize(
        "entries",
        [
            5,
            [{"scenario": "heterogeneous", "engines": 5}],
            [{"scenario": {"message": "x"}}],
            [{"scenario": {"system": {"m": 4, "cluster_heights": "ab"}}}],
            [{"scenario": "heterogeneous", "seed": 1.5}],
            [{"scenario": "heterogeneous", "points": "3"}],
            [{"scenario": "heterogeneous", "budget": 5}],
            [{"scenario": "heterogeneous", "label": None}],
        ],
    )
    def test_malformed_entry_shapes_raise_validation_error(self, entries):
        with pytest.raises(ValidationError, match="malformed campaign plan"):
            Campaign.from_dict({"entries": entries})

    def test_inline_fractional_seed_is_refused_not_truncated(self):
        inline = api.scenario("heterogeneous", points=2).to_dict()
        inline["sim"]["seed"] = 1.5
        with pytest.raises(ValidationError, match="1.5"):
            Campaign.from_dict({"entries": [{"scenario": inline}]})

    def test_from_scenarios_builder(self):
        campaign = Campaign.from_scenarios(
            ("heterogeneous", scenario_for(TINY)), points=2, name="mixed"
        )
        assert campaign.name == "mixed"
        assert campaign.labels == ("heterogeneous", "tiny")
        assert len(campaign.entries[0].scenario.offered_traffic) == 2


class TestStreamingExecution:
    def test_stream_opens_and_closes_with_progress_events(self, tmp_path):
        executor = CampaignExecutor(two_scenario_campaign(), store=ResultStore(tmp_path))
        events = list(executor.execute())
        assert isinstance(events[0], CampaignProgress)
        assert events[0].done == 0 and events[0].total == 8
        assert isinstance(events[-1], CampaignProgress)
        assert events[-1].done == 8 and events[-1].elapsed_seconds > 0
        completed = [event for event in events if isinstance(event, TaskCompleted)]
        assert len(completed) == 8
        assert [event.done for event in completed] == list(range(1, 9))
        assert all(event.total == 8 for event in completed)
        assert all(not event.from_cache for event in completed)

    def test_streamed_records_match_collected_runsets(self, tmp_path):
        store = ResultStore(tmp_path)
        executor = CampaignExecutor(two_scenario_campaign(), store=store)
        streamed = {}
        for event in executor.execute():
            if isinstance(event, TaskCompleted):
                task = event.task
                streamed[(task.entry_index, task.engine_index, task.point_index)] = (
                    event.record
                )
        result = CampaignExecutor(two_scenario_campaign(), store=store).collect()
        assert result.cache_hits == 8  # second executor replays the store
        for entry_index, runset in enumerate(result.runsets):
            for engine_index in range(2):
                for point_index in range(2):
                    record = streamed[(entry_index, engine_index, point_index)]
                    assert runset.records[engine_index * 2 + point_index].latency == (
                        record.latency
                    )

    def test_collect_on_event_observes_every_event(self, tmp_path):
        seen = []
        run_campaign(
            two_scenario_campaign(),
            store=ResultStore(tmp_path),
            on_event=seen.append,
        )
        assert sum(isinstance(event, TaskCompleted) for event in seen) == 8
        assert isinstance(seen[0], CampaignProgress)
        assert isinstance(seen[-1], CampaignProgress)


class TestParallelExecution:
    def test_parallel_streams_and_matches_sequential_bit_for_bit(self, tmp_path):
        """The acceptance criterion: streamed parallel == sequential api.run."""
        campaign = two_scenario_campaign()
        events = list(
            CampaignExecutor(
                campaign, parallel=True, max_workers=2, store=ResultStore(tmp_path / "a")
            ).execute()
        )
        progress = [event for event in events if isinstance(event, CampaignProgress)]
        assert progress[0].done == 0 and progress[-1].done == 8
        assert progress[-1].total == 8
        result = CampaignExecutor(
            campaign, parallel=True, max_workers=2, store=ResultStore(tmp_path / "b")
        ).collect()
        for entry, runset in zip(campaign.entries, result.runsets):
            reference = api.run(entry.scenario, engines=("model", "sim"))
            assert len(runset.records) == len(reference.records)
            for ours, theirs in zip(runset.records, reference.records):
                assert ours.engine == theirs.engine
                assert ours.lambda_g == theirs.lambda_g
                assert ours.latency == theirs.latency
                if theirs.simulation is not None:
                    assert ours.simulation.mean_latency == theirs.simulation.mean_latency
                    assert ours.simulation.std_latency == theirs.simulation.std_latency

    def test_single_point_scenarios_still_fan_out_at_scenario_level(self, tmp_path):
        # Two one-point entries: point-level fan-out alone could never use
        # two workers; the shared queue schedules both scenarios at once.
        campaign = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY, traffic=(4e-4,)), engines=("sim",)),
                CampaignEntry(scenario=scenario_for(WIDE, traffic=(4e-4,)), engines=("sim",)),
            )
        )
        result = run_campaign(
            campaign, parallel=True, max_workers=2, store=ResultStore(tmp_path)
        )
        assert result.cache_misses == 2
        for entry, runset in zip(campaign.entries, result.runsets):
            reference = api.run(entry.scenario, engines=("sim",))
            assert runset.records[0].latency == reference.records[0].latency


class TestStoreBackedReruns:
    def test_second_execution_is_all_cache_hits_and_identical(self, tmp_path):
        """Acceptance criterion: warm re-run serves everything from the store."""
        store = ResultStore(tmp_path)
        campaign = two_scenario_campaign()
        cold = run_campaign(campaign, store=store)
        assert cold.cache_hits == 0 and cold.cache_misses == 8
        warm = run_campaign(campaign, store=store)
        assert warm.cache_hits == 8 and warm.cache_misses == 0
        for cold_set, warm_set in zip(cold.runsets, warm.runsets):
            cold_json = json.dumps(
                [jsonable_record(record) for record in cold_set.records], sort_keys=True
            )
            warm_json = json.dumps(
                [jsonable_record(record) for record in warm_set.records], sort_keys=True
            )
            assert cold_json == warm_json

    def test_warm_rerun_never_invokes_the_simulator(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        campaign = two_scenario_campaign()
        run_campaign(campaign, store=store)

        def _boom(self, scenario, lambda_g):  # pragma: no cover - must not run
            raise AssertionError("simulator invoked on a warm campaign")

        monkeypatch.setattr(api.SimulationEngine, "evaluate", _boom)
        monkeypatch.setattr(api.AnalyticalEngine, "evaluate", _boom)
        warm = run_campaign(campaign, store=store)
        assert warm.cache_misses == 0

    def test_interrupted_campaign_resumes_from_partial_store(self, tmp_path):
        store = ResultStore(tmp_path)
        campaign = two_scenario_campaign()
        # Simulate an interrupt: stop consuming the stream after five tasks.
        executor = CampaignExecutor(campaign, store=store)
        completed = 0
        for event in executor.execute():
            if isinstance(event, TaskCompleted):
                completed += 1
                if completed == 5:
                    break
        resumed = run_campaign(campaign, store=store)
        assert resumed.cache_hits == 5
        assert resumed.cache_misses == 3

    def test_flipping_a_kernel_switch_misses_the_cache(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        campaign = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY, traffic=(4e-4,)), engines=("sim",)),
            )
        )
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        run_campaign(campaign, store=store)
        monkeypatch.setenv("REPRO_SIM_KERNEL", "generator")
        rerun = run_campaign(campaign, store=store)
        assert rerun.cache_hits == 0 and rerun.cache_misses == 1
        # Back to the default switches: the original record is still there.
        monkeypatch.delenv("REPRO_SIM_KERNEL")
        assert run_campaign(campaign, store=store).cache_hits == 1

    def test_changing_a_scenario_field_misses_the_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        base = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY, traffic=(4e-4,)), engines=("sim",)),
            )
        )
        run_campaign(base, store=store)
        reseeded = Campaign(
            entries=(
                CampaignEntry(
                    scenario=scenario_for(TINY, traffic=(4e-4,)).with_seed(77),
                    engines=("sim",),
                ),
            )
        )
        rerun = run_campaign(reseeded, store=store)
        assert rerun.cache_hits == 0 and rerun.cache_misses == 1

    def test_engine_instances_bypass_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        campaign = Campaign(
            entries=(
                CampaignEntry(
                    scenario=scenario_for(TINY, traffic=(4e-4,)),
                    engines=(api.AnalyticalEngine(),),
                ),
            )
        )
        first = run_campaign(campaign, store=store)
        second = run_campaign(campaign, store=store)
        assert first.cache_misses == 1
        assert second.cache_misses == 1  # instances are never content-addressed
        assert len(store) == 0

    def test_store_none_disables_caching(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        campaign = two_scenario_campaign()
        result = run_campaign(campaign, store=None)
        assert result.cache_hits == 0
        assert len(ResultStore()) == 0


class TestStoreResolution:
    """``resolve_store``: how an executor and the campaign server both turn
    their ``store`` argument into a store."""

    def test_default_opens_the_configured_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "configured"))
        store = resolve_store("default")
        assert isinstance(store, ResultStore)
        assert store.root == tmp_path / "configured"

    def test_none_disables_caching(self):
        assert resolve_store(None) is None

    def test_a_store_instance_is_used_as_is(self, tmp_path):
        store = ResultStore(tmp_path)
        assert resolve_store(store) is store
        assert CampaignExecutor(two_scenario_campaign(), store=store).store is store

    @pytest.mark.parametrize(
        "value",
        ["~/.cache/repro", Path("store"), "sqlite", ResultStore],
        ids=["path-string", "path", "backend-name", "store-class"],
    )
    def test_anything_else_is_rejected(self, value):
        """A path is not a store: callers open one with ``ResultStore(path)``."""
        with pytest.raises(ValidationError, match="ResultStore, None, or the string 'default'"):
            resolve_store(value)


class FailingEngine:
    """A cheap engine whose every evaluation raises."""

    name = "failing"
    expensive = False

    def evaluate(self, scenario, lambda_g):
        raise RuntimeError("no answer here")


class TestResultPayload:
    """``result_payload``: the one JSON form of a collected campaign, written
    by ``campaign run --json`` and sent as the server's ``result`` event."""

    CLI_KEYS = {"runners": None, "lost_runners": []}
    SERVER_KEYS = {"workers": 2, "tasks_dispatched": 0}

    def test_runsets_are_the_collected_runsets(self, tmp_path):
        result = run_campaign(two_scenario_campaign(), store=ResultStore(tmp_path))
        payload = result_payload(result, parallel=False, store=None)
        assert list(payload) == ["name", "labels", "runsets", "execution"]
        assert payload["name"] == "two"
        assert payload["labels"] == ["tiny", "wide"]
        assert list(payload["runsets"]) == payload["labels"]
        for label, runset in result:
            assert payload["runsets"][label] == to_jsonable(runset)

    def test_execution_counts_mirror_the_result(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(two_scenario_campaign(), store=store)
        warm = run_campaign(two_scenario_campaign(), store=store)
        execution = result_payload(warm, parallel=False, store=store)["execution"]
        assert execution["tasks"] == 8
        assert (execution["cache_hits"], execution["cache_misses"]) == (8, 0)
        assert execution["elapsed_seconds"] == warm.elapsed_seconds
        assert execution["task_retries"] == 0 and execution["failures"] == []

    @pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "sqlite"])
    def test_store_fields(self, tmp_path, with_store):
        store = ResultStore(tmp_path) if with_store else None
        result = run_campaign(two_scenario_campaign(), store=store)
        execution = result_payload(result, parallel=True, store=store)["execution"]
        assert execution["parallel"] is True
        if with_store:
            assert (execution["store"], execution["store_backend"]) == (str(tmp_path), "sqlite")
        else:
            assert (execution["store"], execution["store_backend"]) == (None, None)

    @pytest.mark.parametrize("extra", [CLI_KEYS, SERVER_KEYS], ids=["cli", "server"])
    def test_caller_keys_sit_before_the_retry_stats(self, extra):
        result = run_campaign(two_scenario_campaign(), store=None)
        execution = result_payload(result, parallel=False, store=None, **extra)["execution"]
        assert list(execution) == [
            "tasks", "cache_hits", "cache_misses", "elapsed_seconds", "parallel",
            "store", "store_backend", *extra, "task_retries", "failures",
        ]
        assert {key: execution[key] for key in extra} == extra

    def test_failures_are_listed_structurally(self):
        campaign = Campaign(
            entries=(
                CampaignEntry(
                    scenario=scenario_for(TINY, traffic=(4e-4,)),
                    engines=("model", FailingEngine()),
                ),
            )
        )
        result = run_campaign(campaign, store=None, strict=False)
        (failure,) = result_payload(result, parallel=False, store=None)["execution"][
            "failures"
        ]
        assert failure["task"] == "tiny:failing:0"
        assert failure["lambda_g"] == 4e-4
        assert failure["attempts"] == 1
        assert "no answer here" in failure["error"]


class TestCampaignResult:
    def test_runset_lookup_by_label(self, tmp_path):
        result = run_campaign(two_scenario_campaign(), store=ResultStore(tmp_path))
        assert result.runset("tiny").scenario.system == TINY
        assert result.runset("wide").scenario.system == WIDE
        with pytest.raises(ValidationError):
            result.runset("nope")

    def test_describe_reports_cache_traffic(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(two_scenario_campaign(), store=store)
        warm = run_campaign(two_scenario_campaign(), store=store)
        text = warm.describe()
        assert "8 cached" in text
        assert "0 computed" in text


class TestRunCompatibility:
    """api.run stays a thin wrapper with unchanged output."""

    def test_api_run_matches_hand_rolled_engine_loop(self):
        scenario = scenario_for(TINY)
        runset = api.run(scenario, engines=("model", "sim"))
        model, sim = api.AnalyticalEngine(), api.SimulationEngine()
        expected = [
            engine.evaluate(scenario, lambda_g)
            for engine in (model, sim)
            for lambda_g in scenario.offered_traffic
        ]
        assert len(runset.records) == len(expected)
        for ours, theirs in zip(runset.records, expected):
            assert ours.engine == theirs.engine
            assert ours.lambda_g == theirs.lambda_g
            assert ours.latency == theirs.latency

    def test_api_run_json_shape_unchanged(self, tmp_path):
        from repro.utils.serialization import dump_json, load_json

        runset = api.run(scenario_for(TINY, traffic=(4e-4,)), engines=("model", "sim"))
        payload = load_json(dump_json(runset, tmp_path / "runset.json"))
        assert set(payload) == {"scenario", "records"}
        assert [record["engine"] for record in payload["records"]] == ["model", "sim"]
        record = payload["records"][1]
        assert set(record) == {
            "engine",
            "lambda_g",
            "latency",
            "saturated",
            "metadata",
            "simulation",
        }
        assert record["metadata"]["seed"] == FAST.seed

    def test_api_run_with_store_reuses_records(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = scenario_for(TINY, traffic=(4e-4,))
        first = api.run(scenario, engines=("sim",), store=store)
        second = api.run(scenario, engines=("sim",), store=store)
        assert json.dumps(jsonable_record(first.records[0]), sort_keys=True) == (
            json.dumps(jsonable_record(second.records[0]), sort_keys=True)
        )
        assert len(store) == 1


class TestChunkedSubmission:
    """The chunked pool contract: per-task outcomes, per-task error containment.

    Chunking exists to amortise per-submission IPC and engine pickling over
    many operating points (the cold 2-worker fan-out regression); these tests
    pin the worker-side contract the coordinator and the cluster runner both
    rely on.
    """

    class _BrokenAt:
        """A stub engine that fails on one operating point."""

        name = "broken-at"
        expensive = True

        def __init__(self, bad):
            self.bad = bad

        def evaluate(self, scenario, lambda_g):
            if lambda_g == self.bad:
                raise RuntimeError("boom at the bad point")
            from repro.api import resolve_engines

            (model,) = resolve_engines(("model",))
            return model.evaluate(scenario, lambda_g)

    def test_chunk_outcomes_align_with_items(self):
        from repro.campaign import _pool_evaluate_chunk

        scenario = scenario_for(TINY, traffic=(4e-4, 8e-4))
        outcomes = _pool_evaluate_chunk(
            self._BrokenAt(None),
            scenario,
            [(4e-4, "t:broken-at:0"), (8e-4, "t:broken-at:1")],
        )
        assert [status for status, _ in outcomes] == ["ok", "ok"]
        assert [record.lambda_g for _, record in outcomes] == [4e-4, 8e-4]

    def test_one_bad_point_never_costs_its_chunk_mates(self):
        from repro.campaign import _pool_evaluate_chunk

        scenario = scenario_for(TINY, traffic=(4e-4, 8e-4))
        outcomes = _pool_evaluate_chunk(
            self._BrokenAt(8e-4),
            scenario,
            [(4e-4, "t:broken-at:0"), (8e-4, "t:broken-at:1")],
        )
        (good_status, record), (bad_status, reason) = outcomes
        assert good_status == "ok" and record.lambda_g == 4e-4
        assert bad_status == "error" and "boom at the bad point" in reason

    def test_campaign_contains_a_mid_chunk_failure(self):
        """End to end: a failing operating point surfaces as that task's
        failure while its chunk-mates complete normally."""
        campaign = Campaign(
            entries=(
                CampaignEntry(
                    scenario=scenario_for(TINY, traffic=(4e-4, 8e-4)),
                    engines=(self._BrokenAt(8e-4),),
                ),
            ),
            name="contained",
        )
        result = run_campaign(campaign, parallel=True, max_workers=1, store=None, strict=False)
        assert len(result.failures) == 1
        assert result.failures[0].task.lambda_g == 8e-4
        assert "boom at the bad point" in result.failures[0].error
        completed = [r for runset in result.runsets for r in runset.records]
        assert [r.lambda_g for r in completed] == [4e-4]
