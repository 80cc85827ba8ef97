"""Campaign walkthrough: many scenarios, one pool, nothing simulated twice.

Runs a small two-scenario campaign twice against a throwaway result store:
the first execution streams every task as it finishes (records + progress
events), the second is served entirely from the content-addressed store —
bit-identical records, zero simulator invocations.  The cold run executes
under a :class:`~repro.campaign.RetryPolicy`, the configuration for a real
unattended campaign: a crashed or hung worker is re-queued (streaming
``TaskRetried``) instead of sinking the run.  The records are then synced
into a second store — what ``campaign store --sync`` does when results come
home from another machine — and the warm run reads them from there.

Run from the repository root with::

    PYTHONPATH=src python examples/campaign_workflow.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import Campaign, CampaignExecutor, ResultStore, RetryPolicy
from repro.campaign import TaskCompleted, TaskRetried
from repro.experiments.compare import compare_campaign
from repro.store import merge_stores


def main() -> None:
    plan = Campaign.from_scenarios(
        ("heterogeneous", "hotspot"), points=3, budget="quick", seed=0, name="demo"
    )
    print(plan.describe())
    print()

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "worker")

        print("cold execution (streaming, crash-tolerant):")
        executor = CampaignExecutor(
            plan,
            parallel=True,
            store=store,
            # Survive worker failure: 3 attempts per task, hung workers
            # killed after 10 minutes — a no-op on a healthy run.
            retry=RetryPolicy(max_attempts=3, timeout_seconds=600),
        )
        for event in executor.execute():
            if isinstance(event, TaskCompleted):
                task = event.task
                print(
                    f"  [{event.done}/{event.total}] {task.label:<14} {task.engine:<6}"
                    f" lambda_g={task.lambda_g:.2e} latency={event.record.latency:10.2f}"
                    f" ({'cache' if event.from_cache else 'ran'})"
                )
            elif isinstance(event, TaskRetried):
                print(
                    f"  [retry] {event.task.task_id} attempt "
                    f"{event.attempt}/{event.max_attempts}: {event.error}"
                )
        print()

        print("syncing the records into a second store:")
        home = ResultStore(Path(tmp) / "home")
        report = merge_stores(home, store)
        print(f"  {report.describe()} -> {home.describe()}")
        print()

        print("warm execution (all records from the synced store):")
        result = CampaignExecutor(plan, parallel=True, store=home).collect()
        print(f"  {result.describe()}")
        assert result.cache_misses == 0
        print()

        for label, report in compare_campaign(result).items():
            print(
                f"  {label}: mean |relative error| "
                f"{report.mean_relative_error:.1%} over "
                f"{report.compared_points} steady-state points"
            )


if __name__ == "__main__":
    main()
