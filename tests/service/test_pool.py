"""Tests of a shared worker pool, started the way the campaign service starts it.

The service's pool *spawns* its workers (the serving front-end submits
from threads, and forking a multithreaded process deadlocks), so workers
inherit none of this process's compiled caches — every table they read
they compile themselves, and the serving process compiles nothing.  That
makes the bit-identity assertions here a real end-to-end check of
worker-side compilation, not a formality.
"""

import dataclasses
import json
import os
import threading
import time

import pytest

from repro import api
from repro.campaign import (
    Campaign,
    CampaignEntry,
    RetryPolicy,
    WorkerPool,
    run_campaign,
)
from repro.model.parameters import MessageSpec
from repro.routing import compile as route_compile
from repro.sim.config import SimulationConfig
from repro.store import ResultStore, jsonable_record
from repro.topology import compile as topology_compile
from repro.topology.multicluster import MultiClusterSpec
from repro.utils import rng
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


def sim_campaign(*, traffic=(4e-4, 8e-4)) -> Campaign:
    return Campaign(
        entries=(
            CampaignEntry(scenario=scenario_for(TINY, traffic=traffic), engines=("sim",)),
            CampaignEntry(scenario=scenario_for(WIDE, traffic=traffic), engines=("sim",)),
        ),
        name="two",
    )


def strip_wall_clock(obj):
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


def spawned_pool(workers):
    """A pool started the way the campaign service starts its own."""
    return WorkerPool(workers, start_method="spawn")


@pytest.fixture(scope="module")
def pool():
    """One warm pool shared by the healthy-path tests (worker spawn is the
    expensive part; fault tests build their own so the injection env var is
    present when *their* workers spawn)."""
    with spawned_pool(2) as shared:
        yield shared


def run_on(pool, campaign, **kwargs):
    kwargs.setdefault("store", None)
    return run_campaign(
        campaign, parallel=True, max_workers=pool.max_workers, pool=pool, **kwargs
    )


class TestSharedPoolExecution:
    def test_records_bit_identical_to_sequential(self, pool):
        """The acceptance criterion: records served from a shared pool match
        a clean sequential run bit for bit (wall clock aside)."""
        campaign = sim_campaign()
        reference = run_campaign(campaign, store=None)
        served = run_on(pool, campaign)
        assert not served.failures
        assert canonical(served) == canonical(reference)

    def test_zoo_campaign_on_a_shared_pool_is_bit_identical(self, pool):
        """Zoo topologies compile worker-side too, down to the same bits."""
        scenario = api.scenario("zoo/torus", points=2, sim=FAST)
        campaign = Campaign(
            entries=(CampaignEntry(scenario=scenario, engines=("sim",)),),
            name="zoo",
        )
        sequential = run_campaign(campaign, store=None)
        dispatched = pool.tasks_dispatched
        served = run_on(pool, campaign)
        assert pool.tasks_dispatched == dispatched + 2
        assert not served.failures
        assert canonical(served) == canonical(sequential)

    def test_serving_process_compiles_nothing(self, pool):
        """Workers compile and warm their own state; the serving process,
        which never runs the simulator, leaves its caches empty."""
        topology_compile.clear_compile_caches()
        route_compile.clear_route_caches()
        rng.clear_stream_pool()
        served = run_on(pool, sim_campaign(traffic=(3e-4,)))
        assert not served.failures
        assert not topology_compile._COMPILED_SYSTEMS
        assert not route_compile._SYSTEM_ROUTES
        assert not rng._STREAM_POOL
        assert not rng._STATE_BLOCKS

    def test_dispatch_counter_counts_submissions(self, pool):
        before = pool.tasks_dispatched
        result = run_on(pool, sim_campaign(traffic=(5e-4,)))
        assert result.cache_misses == 2
        assert pool.tasks_dispatched == before + 2

    def test_warm_store_requests_bypass_the_workers(self, pool, tmp_path):
        campaign = sim_campaign(traffic=(6e-4,))
        store = ResultStore(tmp_path / "store")
        cold = run_on(pool, campaign, store=store)
        assert cold.cache_misses == 2 and cold.cache_hits == 0
        dispatched = pool.tasks_dispatched
        warm = run_on(pool, campaign, store=store)
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        # The invariant the service's warm path rests on: a fully cached
        # campaign never submits anything to a worker.
        assert pool.tasks_dispatched == dispatched
        assert canonical(warm) == canonical(cold)

    def test_second_campaign_reuses_the_pool(self, pool):
        generation = pool.pool_generation()
        run_on(pool, sim_campaign(traffic=(7e-4,)))
        assert pool.pool_generation() == generation  # no pool churn

    def test_stats_surface(self, pool):
        stats = pool.stats()
        assert stats["max_workers"] == 2
        assert stats["closed"] is False
        assert stats["tasks_dispatched"] >= 0
        assert isinstance(stats["worker_pids"], list)
        # The pool owns no shared memory; the key stays for leak sweeps.
        assert stats["shared_memory_segments"] == []
        json.dumps(stats)  # the /health body must be JSON-able


class TestSharedPoolFaults:
    def test_crash_mid_campaign_requeues_and_restarts_the_pool(
        self, tmp_path, monkeypatch
    ):
        campaign = sim_campaign()
        reference = run_campaign(campaign, store=None)
        marker = inject_fault(monkeypatch, tmp_path, "crash", "tiny:sim:0")
        with spawned_pool(2) as pool:
            recovered = run_on(
                pool, campaign, retry=RetryPolicy(max_attempts=3)
            )
            assert marker.exists()
            assert pool.restarts >= 1  # the broken pool was retired in place
            assert pool.pool_generation() >= 2
        assert recovered.task_retries >= 1
        assert not recovered.failures
        assert canonical(recovered) == canonical(reference)

    def test_collateral_casualty_of_a_crash_is_not_charged(
        self, tmp_path, monkeypatch
    ):
        """Worker-pid tagging at work: with *no* retry budget, the task whose
        worker died is the only failure — the innocent task that broke with
        the same pool re-queues uncharged and completes."""
        campaign = sim_campaign(traffic=(4e-4,))  # two tasks, one per entry
        inject_fault(monkeypatch, tmp_path, "crash", "tiny:sim:0")
        with spawned_pool(1) as pool:  # one worker: serial, deterministic
            result = run_on(
                pool,
                campaign,
                retry=RetryPolicy(max_attempts=1),
                strict=False,
            )
        assert [failure.task.task_id for failure in result.failures] == ["tiny:sim:0"]
        assert result.task_retries == 0  # the free re-queue is not a retry
        assert len(result.runset("wide").records) == 1  # casualty completed
        assert len(result.runset("tiny").records) == 0

    def test_crash_in_another_campaign_is_not_charged(self, tmp_path, monkeypatch):
        """Two campaigns share one worker.  Campaign "bee"'s second task
        crashes it while campaign "ay"'s only task waits in the queue, so
        the broken pool fails both.  The dead pid's tag names bee's task, so
        ay re-queues uncharged and completes without any retry budget, while
        bee recovers through its own retries."""
        long_run = dataclasses.replace(FAST, measured_messages=20_000)
        bee = Campaign(
            entries=(
                CampaignEntry(
                    scenario=dataclasses.replace(scenario_for(TINY), sim=long_run),
                    engines=("sim",),
                    label="bee",
                ),
            ),
            name="bee",
        )
        ay = Campaign(
            entries=(
                CampaignEntry(
                    scenario=scenario_for(WIDE, traffic=(4e-4,)),
                    engines=("sim",),
                    label="ay",
                ),
            ),
            name="ay",
        )
        reference = run_campaign(ay, store=None)
        marker = inject_fault(monkeypatch, tmp_path, "crash", "bee:sim:1")
        results = {}
        with spawned_pool(1) as pool:
            thread = threading.Thread(
                target=lambda: results.setdefault(
                    "bee", run_on(pool, bee, retry=RetryPolicy(max_attempts=3))
                )
            )
            thread.start()
            deadline = time.monotonic() + 60.0
            while pool.tasks_dispatched < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.tasks_dispatched == 2  # bee's two tasks are queued
            served = run_on(pool, ay, strict=False)
            thread.join(timeout=300.0)
        assert not thread.is_alive()
        assert marker.exists()
        assert [failure.task.task_id for failure in served.failures] == []
        assert served.task_retries == 0  # collateral re-queues are free
        assert canonical(served) == canonical(reference)
        assert not results["bee"].failures
        assert results["bee"].task_retries == 1  # only the culprit is charged

    def test_hung_worker_is_killed_and_the_campaign_recovers(
        self, tmp_path, monkeypatch
    ):
        campaign = sim_campaign(traffic=(4e-4,))
        reference = run_campaign(campaign, store=None)
        marker = inject_fault(monkeypatch, tmp_path, "hang", "wide:sim:0")
        with spawned_pool(2) as pool:
            recovered = run_on(
                pool,
                campaign,
                retry=RetryPolicy(max_attempts=2, timeout_seconds=2.0),
            )
            assert marker.exists()
            assert pool.restarts >= 1  # the timeout kill broke the pool
        assert recovered.task_retries >= 1
        assert not recovered.failures
        assert canonical(recovered) == canonical(reference)


class TestPoolLifecycle:
    def test_shutdown_stops_every_worker_and_removes_the_registry(self):
        with spawned_pool(2) as pool:
            run_on(pool, sim_campaign(traffic=(4e-4,)))
            workers = pool.worker_snapshot()
            assert workers and os.path.isdir(pool.registry)
        # Context exit is shutdown(): no worker and no pid tag survive it.
        assert not any(process.is_alive() for process in workers.values())
        assert not os.path.exists(pool.registry)

    def test_shutdown_is_idempotent_and_closes_for_good(self):
        pool = spawned_pool(1).start()
        pool.shutdown()
        pool.shutdown()
        assert pool.stats()["closed"] is True
        with pytest.raises(ValidationError, match="shut down"):
            pool.submit(
                api.AnalyticalEngine(),
                scenario_for(TINY, traffic=(4e-4,)),
                4e-4,
                "tiny:model:0",
                "execution",
                None,
            )

    def test_worker_count_floor(self):
        pool = spawned_pool(0)
        try:
            assert pool.max_workers == 1
        finally:
            pool.shutdown()
