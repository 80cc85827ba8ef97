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
    EphemeralPoolBackend,
    RetryPolicy,
    TaskCompleted,
    TaskFailed,
    TaskRetried,
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
        assert policy.backoff_seconds == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"timeout_seconds": 0},
            {"timeout_seconds": -1.0},
            {"backoff_seconds": -0.1},
            {"backoff_multiplier": 0.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            RetryPolicy(**kwargs)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_seconds=0.5, backoff_multiplier=2.0)
        assert policy.delay_before(1) == 0.0  # the first attempt never waits
        assert policy.delay_before(2) == 0.5
        assert policy.delay_before(3) == 1.0
        assert policy.delay_before(4) == 2.0

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


class RecordingPoolBackend(EphemeralPoolBackend):
    """The default pool backend, noting the worker count of every round."""

    def __init__(self):
        super().__init__()
        self.rounds = []

    def begin_round(self, workers):
        self.rounds.append(workers)
        return super().begin_round(workers)


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

    def test_sequential_timed_campaign_uses_one_worker(self):
        campaign = Campaign(
            entries=(
                CampaignEntry(scenario=scenario_for(TINY), engines=("model", "sim")),
                CampaignEntry(scenario=scenario_for(WIDE), engines=("sim",)),
            )
        )
        backend = RecordingPoolBackend()
        result = CampaignExecutor(
            campaign,
            store=None,
            retry=RetryPolicy(max_attempts=2, timeout_seconds=60.0),
            backend=backend,
        ).collect()
        assert backend.rounds == [1]  # all six misses, cheap ones included
        assert canonical(result) == canonical(run_campaign(campaign, store=None))

    def test_a_lone_timed_task_stays_on_the_pool(self):
        """Without a timeout a lone pooled task is evaluated in the calling
        process; under one it keeps its worker, which a hang can be killed in."""
        backend = RecordingPoolBackend()
        result = CampaignExecutor(
            self.campaign(),
            store=None,
            parallel=True,
            retry=RetryPolicy(max_attempts=2, timeout_seconds=60.0),
            backend=backend,
        ).collect()
        assert backend.rounds == [1]
        assert canonical(result) == canonical(run_campaign(self.campaign(), store=None))

    def test_parallel_timed_round_honours_max_workers(self):
        backend = RecordingPoolBackend()
        CampaignExecutor(
            sim_campaign(),
            store=None,
            parallel=True,
            max_workers=2,
            retry=RetryPolicy(max_attempts=2, timeout_seconds=60.0),
            backend=backend,
        ).collect()
        assert backend.rounds == [2]

    def test_timed_warm_rerun_starts_no_pool(self, tmp_path):
        """Timed records persist like any others, and a fully cached rerun
        has no miss to put on the pool."""
        store = ResultStore(tmp_path)
        retry = RetryPolicy(max_attempts=2, timeout_seconds=60.0)
        cold = run_campaign(sim_campaign(), store=store, retry=retry)
        assert len(store) == 4
        backend = RecordingPoolBackend()
        warm = CampaignExecutor(
            sim_campaign(), store=store, retry=retry, backend=backend
        ).collect()
        assert backend.rounds == []
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
