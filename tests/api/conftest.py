"""Fixtures shared by the campaign API tests."""

import pytest

import repro.campaign


@pytest.fixture
def started_pools(monkeypatch):
    """Every :class:`~repro.campaign.WorkerPool` an executor starts for
    itself during the test, in start order.  Each one also remembers every
    worker process its rounds snapshotted (``pool.workers``), which outlive
    the pool's shutdown as handles."""
    pools = []

    class RecordingPool(repro.campaign.WorkerPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.workers = {}
            pools.append(self)

        def worker_snapshot(self):
            snapshot = super().worker_snapshot()
            self.workers.update(snapshot)
            return snapshot

    monkeypatch.setattr(repro.campaign, "WorkerPool", RecordingPool)
    return pools
