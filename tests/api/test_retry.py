"""Tests of campaign fault tolerance: retry policy, crashes, hangs, timeouts.

The acceptance bar: killing a pooled worker mid-campaign still yields a
completed campaign whose records are bit-identical to an uninterrupted
sequential run (the wall-clock provenance in metadata is the only thing
allowed to differ).  Worker faults are injected deterministically through
the ``REPRO_CAMPAIGN_FAULT`` hook: the named task crashes (``os._exit``) or
hangs (sleeps) exactly once, recorded by a marker file, so the retried
attempt succeeds.
"""

import json

import pytest

from repro import api
from repro.campaign import (
    Campaign,
    CampaignEntry,
    CampaignExecutionError,
    CampaignExecutor,
    CampaignProgress,
    RetryPolicy,
    TaskCompleted,
    TaskFailed,
    TaskRetried,
    WorkerPool,
    run_campaign,
)
from repro.store import ResultStore, jsonable_record
from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.topology.multicluster import MultiClusterSpec
from repro.utils.validation import ValidationError

TINY = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")
WIDE = MultiClusterSpec(m=4, cluster_heights=(1, 1, 1, 1), name="wide")
FAST = SimulationConfig(measured_messages=300, warmup_messages=30, drain_messages=30, seed=3)


def scenario_for(system, *, traffic=(4e-4, 8e-4)) -> api.Scenario:
    return api.Scenario(
        system=system,
        message=MessageSpec(32, 256),
        offered_traffic=traffic,
        sim=FAST,
        name=system.name,
    )


def sim_campaign() -> Campaign:
    return Campaign(
        entries=(
            CampaignEntry(scenario=scenario_for(TINY), engines=("sim",)),
            CampaignEntry(scenario=scenario_for(WIDE), engines=("sim",)),
        ),
        name="two",
    )


def strip_wall_clock(obj):
    """Drop the wall-clock provenance — the only legitimately run-dependent field."""
    if isinstance(obj, dict):
        return {k: strip_wall_clock(v) for k, v in obj.items() if k != "wall_clock_seconds"}
    if isinstance(obj, list):
        return [strip_wall_clock(v) for v in obj]
    return obj


def canonical(result) -> str:
    return json.dumps(
        [
            [strip_wall_clock(jsonable_record(record)) for record in runset.records]
            for runset in result.runsets
        ],
        sort_keys=True,
    )


def inject_fault(monkeypatch, tmp_path, kind, task_id):
    marker = tmp_path / "fault-marker"
    monkeypatch.setenv(
        "REPRO_CAMPAIGN_FAULT",
        json.dumps({"kind": kind, "task": task_id, "marker": str(marker)}),
    )
    return marker


class FlakyEngine:
    """An inline engine that fails a configurable number of times per point."""

    name = "flaky"
    expensive = False

    def __init__(self, failures=1):
        self.failures = failures
        self.calls = 0

    def evaluate(self, scenario, lambda_g):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"transient failure #{self.calls}")
        return api.AnalyticalEngine(name=self.name).evaluate(scenario, lambda_g)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.timeout_seconds is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"timeout_seconds": 0},
            {"timeout_seconds": -1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            RetryPolicy(**kwargs)

    def test_task_id_is_label_engine_point(self):
        campaign = sim_campaign()
        executor = CampaignExecutor(campaign, store=None)
        ids = [task.task_id for task in executor.tasks()]
        assert ids == ["tiny:sim:0", "tiny:sim:1", "wide:sim:0", "wide:sim:1"]


class TestInlineRetries:
    def test_transient_failure_is_retried_and_recovers(self, tmp_path):
        engine = FlakyEngine(failures=1)
        campaign = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY, traffic=(4e-4,)), engines=(engine,)),
            )
        )
        events = list(
            CampaignExecutor(
                campaign, store=None, retry=RetryPolicy(max_attempts=2)
            ).execute()
        )
        retried = [event for event in events if isinstance(event, TaskRetried)]
        completed = [event for event in events if isinstance(event, TaskCompleted)]
        assert len(retried) == 1 and len(completed) == 1
        assert retried[0].attempt == 1 and retried[0].max_attempts == 2
        assert "transient failure" in retried[0].error
        assert engine.calls == 2

    def test_exhausted_task_streams_task_failed_not_an_exception(self):
        campaign = Campaign(
            entries=(
                CampaignEntry(
                    scenario=scenario_for(TINY, traffic=(4e-4,)),
                    engines=(FlakyEngine(failures=99),),
                ),
            )
        )
        events = list(
            CampaignExecutor(
                campaign, store=None, retry=RetryPolicy(max_attempts=2)
            ).execute()
        )
        failed = [event for event in events if isinstance(event, TaskFailed)]
        assert len(failed) == 1
        assert failed[0].attempts == 2
        closing = events[-1]
        assert isinstance(closing, CampaignProgress)
        assert closing.done == closing.total == 1
        assert closing.failed == 1 and closing.retries == 1

    def test_default_policy_gives_one_attempt(self):
        engine = FlakyEngine(failures=1)
        campaign = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY, traffic=(4e-4,)), engines=(engine,)),
            )
        )
        with pytest.raises(CampaignExecutionError):
            run_campaign(campaign, store=None)
        assert engine.calls == 1  # no silent retries without a policy

    def test_strict_collect_raises_with_structured_failures(self):
        campaign = Campaign(
            entries=(
                CampaignEntry(
                    scenario=scenario_for(TINY, traffic=(4e-4,)),
                    engines=(FlakyEngine(failures=99),),
                ),
            )
        )
        with pytest.raises(CampaignExecutionError) as excinfo:
            run_campaign(campaign, store=None, retry=RetryPolicy(max_attempts=2))
        assert len(excinfo.value.failures) == 1
        failure = excinfo.value.failures[0]
        assert failure.task.task_id == "tiny:flaky:0"
        assert failure.attempts == 2
        assert "tiny:flaky:0" in str(excinfo.value)

    def test_non_strict_collect_returns_partial_runsets(self):
        healthy = api.AnalyticalEngine()
        campaign = Campaign(
            entries=(
                CampaignEntry(
                    scenario=scenario_for(TINY, traffic=(4e-4, 8e-4)),
                    engines=(healthy, FlakyEngine(failures=99)),
                ),
            )
        )
        result = run_campaign(
            campaign, store=None, retry=RetryPolicy(max_attempts=2), strict=False
        )
        assert len(result.failures) == 2  # both flaky points exhausted
        assert result.task_retries == 2
        runset = result.runsets[0]
        assert len(runset.records) == 2  # the healthy engine's series survives
        assert all(record.engine == "model" for record in runset.records)
        assert result.total_tasks == 4
        assert {failure.task.task_id for failure in result.failures} == {
            "tiny:flaky:0",
            "tiny:flaky:1",
        }

    def test_retry_events_observable_through_collect(self):
        seen = []
        campaign = Campaign(
            entries=(
                CampaignEntry(
                    scenario=scenario_for(TINY, traffic=(4e-4,)),
                    engines=(FlakyEngine(failures=1),),
                ),
            )
        )
        result = run_campaign(
            campaign, store=None, retry=RetryPolicy(max_attempts=3), on_event=seen.append
        )
        assert result.task_retries == 1
        assert sum(isinstance(event, TaskRetried) for event in seen) == 1


class TestPooledCrashRecovery:
    def test_crashed_worker_recovers_bit_identically(self, tmp_path, monkeypatch):
        """The acceptance criterion: kill a pooled worker, records unchanged."""
        campaign = sim_campaign()
        reference = run_campaign(campaign, store=None)
        marker = inject_fault(monkeypatch, tmp_path, "crash", "tiny:sim:0")
        recovered = run_campaign(
            campaign,
            parallel=True,
            max_workers=2,
            store=None,
            retry=RetryPolicy(max_attempts=3),
        )
        assert marker.exists()  # the crash really fired
        assert recovered.task_retries >= 1
        assert not recovered.failures
        assert canonical(recovered) == canonical(reference)

    def test_crash_recovery_persists_records_to_the_store(self, tmp_path, monkeypatch):
        campaign = sim_campaign()
        store = ResultStore(tmp_path / "store")
        inject_fault(monkeypatch, tmp_path, "crash", "tiny:sim:1")
        run_campaign(
            campaign,
            parallel=True,
            max_workers=2,
            store=store,
            retry=RetryPolicy(max_attempts=3),
        )
        assert len(store) == 4
        monkeypatch.delenv("REPRO_CAMPAIGN_FAULT")
        warm = run_campaign(campaign, parallel=True, max_workers=2, store=store)
        assert warm.cache_hits == 4 and warm.cache_misses == 0

    def test_crash_without_retries_fails_structured_not_raising_midstream(
        self, tmp_path, monkeypatch
    ):
        campaign = sim_campaign()
        inject_fault(monkeypatch, tmp_path, "crash", "tiny:sim:0")
        executor = CampaignExecutor(campaign, parallel=True, max_workers=2, store=None)
        events = list(executor.execute())  # must not raise mid-stream
        failed = [event for event in events if isinstance(event, TaskFailed)]
        assert failed  # at least the crashed task is a structured failure
        for failure in failed:
            assert "worker crashed" in failure.error
        closing = events[-1]
        assert isinstance(closing, CampaignProgress)
        assert closing.done == closing.total == 4

    def test_crash_retry_events_name_the_pool_breakage(self, tmp_path, monkeypatch):
        campaign = sim_campaign()
        inject_fault(monkeypatch, tmp_path, "crash", "wide:sim:0")
        events = list(
            CampaignExecutor(
                campaign,
                parallel=True,
                max_workers=2,
                store=None,
                retry=RetryPolicy(max_attempts=3),
            ).execute()
        )
        retried = [event for event in events if isinstance(event, TaskRetried)]
        assert retried
        assert any("worker crashed" in event.error for event in retried)
        completed = [event for event in events if isinstance(event, TaskCompleted)]
        assert len(completed) == 4  # every task still completed


class TestTimedTasksOnThePool:
    """With a timeout set, every task runs on the worker pool — one worker
    without ``parallel`` — so a hung evaluation can actually be reclaimed."""

    def campaign(self):
        return Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY, traffic=(4e-4,)), engines=("sim",)),
            )
        )

    def test_timeout_happy_path_is_bit_identical(self):
        reference = run_campaign(self.campaign(), store=None)
        pooled = run_campaign(
            self.campaign(),
            store=None,
            retry=RetryPolicy(max_attempts=2, timeout_seconds=60.0),
        )
        assert pooled.task_retries == 0
        # Records survive the crossing from the worker unchanged.
        assert canonical(pooled) == canonical(reference)

    def test_sequential_timed_campaign_uses_one_worker(self, started_pools):
        campaign = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY), engines=("model", "sim")),
                CampaignEntry(scenario=scenario_for(WIDE), engines=("sim",)),
            )
        )
        result = CampaignExecutor(
            campaign,
            store=None,
            retry=RetryPolicy(max_attempts=2, timeout_seconds=60.0),
        ).collect()
        # One pool of one worker for all six misses, cheap ones included.
        assert [pool.max_workers for pool in started_pools] == [1]
        assert canonical(result) == canonical(run_campaign(campaign, store=None))

    def test_a_lone_timed_task_stays_on_the_pool(self, started_pools):
        """Without a timeout a lone pooled task is evaluated in the calling
        process; under one it keeps its worker, which a hang can be killed in."""
        result = CampaignExecutor(
            self.campaign(),
            store=None,
            parallel=True,
            retry=RetryPolicy(max_attempts=2, timeout_seconds=60.0),
        ).collect()
        assert [pool.max_workers for pool in started_pools] == [1]
        assert canonical(result) == canonical(run_campaign(self.campaign(), store=None))

    def test_parallel_timed_round_honours_max_workers(self, started_pools):
        CampaignExecutor(
            sim_campaign(),
            store=None,
            parallel=True,
            max_workers=2,
            retry=RetryPolicy(max_attempts=2, timeout_seconds=60.0),
        ).collect()
        assert [pool.max_workers for pool in started_pools] == [2]

    def test_timed_warm_rerun_starts_no_pool(self, tmp_path, started_pools):
        """Timed records persist like any others, and a fully cached rerun
        has no miss to put on the pool."""
        store = ResultStore(tmp_path)
        retry = RetryPolicy(max_attempts=2, timeout_seconds=60.0)
        cold = run_campaign(sim_campaign(), store=store, retry=retry)
        assert len(store) == 4
        assert len(started_pools) == 1
        warm = CampaignExecutor(sim_campaign(), store=store, retry=retry).collect()
        assert len(started_pools) == 1  # the warm rerun started none
        assert (warm.cache_hits, warm.cache_misses) == (4, 0)
        assert canonical(warm) == canonical(cold)

    def test_hung_sequential_task_is_killed_and_retried(self, tmp_path, monkeypatch):
        reference = run_campaign(self.campaign(), store=None)
        marker = inject_fault(monkeypatch, tmp_path, "hang", "tiny:sim:0")
        recovered = run_campaign(
            self.campaign(),
            store=None,
            retry=RetryPolicy(max_attempts=2, timeout_seconds=1.5),
        )
        assert marker.exists()
        assert recovered.task_retries == 1
        assert not recovered.failures
        assert canonical(recovered) == canonical(reference)

    def test_sequential_timeout_exhaustion_is_a_structured_failure(
        self, tmp_path, monkeypatch
    ):
        inject_fault(monkeypatch, tmp_path, "hang", "tiny:sim:0")
        result = run_campaign(
            self.campaign(),
            store=None,
            retry=RetryPolicy(max_attempts=1, timeout_seconds=1.0),
            strict=False,
        )
        assert len(result.failures) == 1
        assert "timed out" in result.failures[0].error
        assert "worker killed" in result.failures[0].error

    def test_crashed_sequential_worker_reports_and_recovers(self, tmp_path, monkeypatch):
        marker = inject_fault(monkeypatch, tmp_path, "crash", "tiny:sim:0")
        events = list(
            CampaignExecutor(
                self.campaign(),
                store=None,
                retry=RetryPolicy(max_attempts=2, timeout_seconds=60.0),
            ).execute()
        )
        assert marker.exists()
        retried = [event for event in events if isinstance(event, TaskRetried)]
        assert len(retried) == 1
        assert "process pool broke" in retried[0].error
        assert sum(isinstance(event, TaskCompleted) for event in events) == 1

    def test_no_timeout_keeps_inline_tasks_in_process(self):
        import os

        class PidEngine:
            name = "pid"
            expensive = False

            def evaluate(self, scenario, lambda_g):
                record = api.AnalyticalEngine(name=self.name).evaluate(
                    scenario, lambda_g
                )
                self.pid = os.getpid()
                return record

        engine = PidEngine()
        campaign = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY, traffic=(4e-4,)), engines=(engine,)),
            )
        )
        run_campaign(campaign, store=None, retry=RetryPolicy(max_attempts=2))
        assert engine.pid == os.getpid()  # no harness child without a timeout

    def test_parallel_timeout_reclaims_a_hung_model_task(self, tmp_path, monkeypatch):
        """The model engine is cheap (``expensive=False``) and runs in the
        calling process without a timeout; under one it runs on the pool,
        where a hang is killed and retried."""
        campaign = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY), engines=("model", "sim")),
            )
        )
        reference = run_campaign(campaign, store=None)
        marker = inject_fault(monkeypatch, tmp_path, "hang", "tiny:model:0")
        recovered = run_campaign(
            campaign,
            parallel=True,
            max_workers=2,
            store=None,
            retry=RetryPolicy(max_attempts=2, timeout_seconds=1.5),
        )
        assert marker.exists()
        assert recovered.task_retries == 1
        assert not recovered.failures
        assert canonical(recovered) == canonical(reference)


def local_engine():
    """An expensive engine whose class is defined inside a function, so it
    cannot be pickled for a pool worker."""

    class LocalEngine:
        name = "local"
        expensive = True

        def evaluate(self, scenario, lambda_g):
            return api.AnalyticalEngine(name=self.name).evaluate(scenario, lambda_g)

    return LocalEngine()


class TestUnpicklableEngine:
    """An engine the pool cannot receive fails every task of its slot at
    once: pickling fails the same way on every attempt, so a retry only
    repeats it."""

    @pytest.mark.parametrize(
        "parallel,timeout",
        [(False, 30.0), (True, None)],
        ids=["sequential-timed", "parallel"],
    )
    def test_tasks_fail_after_one_attempt_without_retries(self, parallel, timeout):
        campaign = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY), engines=(local_engine(),)),
            )
        )
        events = list(
            CampaignExecutor(
                campaign,
                store=None,
                parallel=parallel,
                retry=RetryPolicy(max_attempts=3, timeout_seconds=timeout),
            ).execute()
        )
        assert not [event for event in events if isinstance(event, TaskRetried)]
        failures = [event for event in events if isinstance(event, TaskFailed)]
        assert [failure.task.task_id for failure in failures] == [
            "tiny:local:0",
            "tiny:local:1",
        ]
        for failure in failures:
            assert failure.attempts == 1
            assert "pickle" in failure.error
        closing = events[-1]
        assert isinstance(closing, CampaignProgress)
        assert (closing.done, closing.failed, closing.retries) == (2, 2, 0)


class UnpreparableEngine:
    """A picklable expensive engine whose ``prepare`` always raises, the way
    the vectorized kernel raises ``NativeCoreUnavailable`` without a C
    compiler."""

    name = "unpreparable"
    expensive = True

    def prepare(self, scenario):
        raise RuntimeError("cannot prepare this engine")

    def evaluate(self, scenario, lambda_g):
        return api.AnalyticalEngine(name=self.name).evaluate(scenario, lambda_g)


class TestPrepareFailure:
    """An engine whose preparation raises fails its tasks as structured
    events on every pool; nothing escapes ``execute()``.

    Pool workers prepare each engine themselves, so each task raises on the
    worker and goes through the retry policy, whether the pool is the
    executor's own or a shared one.
    """

    @pytest.mark.parametrize(
        "case", ["own-parallel", "own-timed", "shared", "shared-timed"]
    )
    def test_every_task_ends_failed_and_execute_never_raises(self, case):
        campaign = Campaign(
            entries=(
                CampaignEntry(
                    scenario=scenario_for(TINY), engines=(UnpreparableEngine(),)
                ),
            )
        )
        shared = WorkerPool(1, start_method="spawn") if case.startswith("shared") else None
        try:
            events = list(
                CampaignExecutor(
                    campaign,
                    store=None,
                    parallel=case != "own-timed",
                    retry=RetryPolicy(
                        max_attempts=2,
                        timeout_seconds=30.0 if case.endswith("timed") else None,
                    ),
                    pool=shared,
                ).execute()
            )
        finally:
            if shared is not None:
                shared.shutdown()
        outcomes = [
            event for event in events if isinstance(event, (TaskRetried, TaskFailed))
        ]
        assert len(outcomes) == len(events) - 2  # between the two progress events
        failures = [event for event in outcomes if isinstance(event, TaskFailed)]
        assert sorted(failure.task.task_id for failure in failures) == [
            "tiny:unpreparable:0",
            "tiny:unpreparable:1",
        ]
        assert len(outcomes) == 2 * 2  # one retry, then the failure, per task
        for event in outcomes:
            assert "cannot prepare this engine" in event.error
        for failure in failures:
            assert failure.attempts == 2
        closing = events[-1]
        assert isinstance(closing, CampaignProgress)
        assert (closing.done, closing.failed) == (2, 2)

    @pytest.mark.parametrize("case", ["own", "own-timed", "shared"])
    def test_healthy_slots_complete_bit_identically_beside_it(self, case):
        """Only the unpreparable engine's tasks fail; the pooled sim tasks
        beside it complete with the records of a sequential run."""
        campaign = Campaign(
            entries=(
                CampaignEntry(
                    scenario=scenario_for(TINY),
                    engines=(UnpreparableEngine(), "sim"),
                ),
                CampaignEntry(scenario=scenario_for(WIDE), engines=("sim",)),
            )
        )
        shared = WorkerPool(2, start_method="spawn") if case == "shared" else None
        try:
            result = CampaignExecutor(
                campaign,
                store=None,
                parallel=True,
                max_workers=2,
                retry=RetryPolicy(
                    max_attempts=2,
                    timeout_seconds=60.0 if case == "own-timed" else None,
                ),
                pool=shared,
            ).collect(strict=False)
        finally:
            if shared is not None:
                shared.shutdown()
        assert sorted(failure.task.task_id for failure in result.failures) == [
            "tiny:unpreparable:0",
            "tiny:unpreparable:1",
        ]
        assert result.task_retries == 2
        reference = run_campaign(sim_campaign(), store=None)
        assert canonical(result) == canonical(reference)


class TestEqualSizeEngineOnThePool:
    def test_timed_campaign_returns_the_untimed_latencies(self):
        """Under a task timeout every task runs on the worker pool, so the
        equal-size ablation engine must pickle there."""
        campaign = Campaign(
            entries=(
                CampaignEntry(
                    scenario=api.scenario("table1/544", points=2),
                    engines=(api.AnalyticalEngine(), api.equal_size_engine()),
                ),
            )
        )

        def latencies(result):
            return [
                (record.engine, record.lambda_g, record.latency)
                for _, runset in result
                for record in runset.records
            ]

        untimed = run_campaign(campaign, store=None)
        timed = run_campaign(
            campaign, store=None, retry=RetryPolicy(max_attempts=2, timeout_seconds=30)
        )
        assert not timed.failures
        assert len(latencies(timed)) == 4
        assert latencies(timed) == latencies(untimed)


class TestPooledTimeout:
    def test_hung_worker_is_killed_and_retried(self, tmp_path, monkeypatch):
        campaign = sim_campaign()
        reference = run_campaign(campaign, store=None)
        marker = inject_fault(monkeypatch, tmp_path, "hang", "tiny:sim:0")
        recovered = run_campaign(
            campaign,
            parallel=True,
            max_workers=2,
            store=None,
            retry=RetryPolicy(max_attempts=2, timeout_seconds=2.0),
        )
        assert marker.exists()
        assert recovered.task_retries >= 1
        assert not recovered.failures
        assert canonical(recovered) == canonical(reference)

    def test_timeout_exhaustion_is_a_structured_failure(self, tmp_path, monkeypatch):
        # The hang fires once per missing marker; deleting the marker in a
        # fresh directory and allowing one attempt makes the timeout terminal.
        campaign = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY, traffic=(4e-4,)), engines=("sim",)),
                CampaignEntry(scenario=scenario_for(WIDE, traffic=(4e-4,)), engines=("sim",)),
            )
        )
        inject_fault(monkeypatch, tmp_path, "hang", "tiny:sim:0")
        result = run_campaign(
            campaign,
            parallel=True,
            max_workers=2,
            store=None,
            retry=RetryPolicy(max_attempts=1, timeout_seconds=1.5),
            strict=False,
        )
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.task.task_id == "tiny:sim:0"
        assert "timed out" in failure.error
        # The innocent scenario still completed despite the pool kill.
        total_records = sum(len(runset.records) for runset in result.runsets)
        assert total_records == 1
