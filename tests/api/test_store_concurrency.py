"""Concurrency tests: housekeeping racing record I/O must never corrupt.

Both backends are shared mutable state — campaign workers ``get``/``put``
while an operator (or another campaign) runs ``prune``/``clear``.  The
contract under that race: no call raises, and ``get`` returns either ``None``
or a complete, validated record — never a partial one.  Directory writes are
atomic (``os.replace``); SQLite serialises through WAL transactions.
"""

import json
import sqlite3
import threading
import time

import pytest

from repro import api
from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.store import ResultStore, jsonable_record, task_key
from repro.topology.multicluster import MultiClusterSpec

TINY = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")
FAST = SimulationConfig(measured_messages=300, warmup_messages=30, drain_messages=30, seed=5)

#: Iterations per worker thread — enough to interleave, small enough to stay
#: well under a second per backend.
ROUNDS = 60


@pytest.fixture(params=["directory", "sqlite"])
def store(tmp_path, request):
    return ResultStore(tmp_path, backend=request.param)


def tiny_scenario() -> api.Scenario:
    return api.Scenario(
        system=TINY,
        message=MessageSpec(32, 256),
        offered_traffic=(4e-4,),
        sim=FAST,
        name="tiny",
    )


@pytest.fixture(scope="module")
def record():
    return api.run(tiny_scenario(), engines=("model",)).series("model")[0]


def _run_threads(workers, errors):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "worker deadlocked"
    assert errors == []


class TestHousekeepingRaces:
    def test_prune_and_clear_racing_get_and_put(self, store, record):
        keys = [task_key(tiny_scenario(), "model", 4e-4 + i * 1e-6) for i in range(8)]
        expected = json.dumps(jsonable_record(record), sort_keys=True)
        errors = []

        def guarded(body):
            def run():
                try:
                    body()
                except Exception as error:  # noqa: BLE001 - the test's whole point
                    errors.append(error)

            return run

        @guarded
        def writer():
            for _ in range(ROUNDS):
                for key in keys:
                    store.put(key, record)

        @guarded
        def reader():
            for _ in range(ROUNDS):
                for key in keys:
                    loaded = store.get(key)
                    if loaded is not None:
                        # Never a partial record: it either misses or it
                        # round-trips bit-identically.
                        assert (
                            json.dumps(jsonable_record(loaded), sort_keys=True)
                            == expected
                        )

        @guarded
        def member():
            for _ in range(ROUNDS):
                for key in keys:
                    key in store  # noqa: B015 - exercised for the race only

        @guarded
        def housekeeper():
            for _ in range(ROUNDS):
                store.prune(3)
                store.clear()
                store.size_bytes()
                len(store)

        _run_threads([writer, writer, reader, member, housekeeper], errors)

    def test_concurrent_writers_to_the_same_key(self, store, record):
        key = task_key(tiny_scenario(), "model", 4e-4)
        expected = json.dumps(jsonable_record(record), sort_keys=True)
        errors = []

        def writer():
            try:
                for _ in range(ROUNDS):
                    store.put(key, record)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        _run_threads([writer, writer, writer], errors)
        loaded = store.get(key)
        assert loaded is not None
        assert json.dumps(jsonable_record(loaded), sort_keys=True) == expected

    def test_clear_during_reads_yields_clean_misses(self, store, record):
        keys = [task_key(tiny_scenario(), "model", 5e-4 + i * 1e-6) for i in range(4)]
        for key in keys:
            store.put(key, record)
        errors = []
        outcomes = []

        def reader():
            try:
                for _ in range(ROUNDS):
                    for key in keys:
                        outcomes.append(store.get(key) is not None)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def clearer():
            try:
                for _ in range(ROUNDS // 4):
                    store.clear()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        _run_threads([reader, clearer], errors)
        assert outcomes  # both hits and clean misses are legal; crashes are not


class TestSqliteFirstWrite:
    def test_first_put_waits_out_a_writer_blocking_the_wal_switch(self, tmp_path, record):
        # Switching a fresh file into WAL upgrades a read lock to the write
        # lock, and SQLite refuses that upgrade at once (no busy timeout)
        # while another connection holds the write lock: concurrent first
        # writers hit this.  The put must wait, not raise.
        store = ResultStore(tmp_path, backend="sqlite")
        key = task_key(tiny_scenario(), "model", 4e-4)
        other = sqlite3.connect(
            str(tmp_path / "store.db"), isolation_level=None, check_same_thread=False
        )
        other.execute("CREATE TABLE hold (x)")
        other.execute("BEGIN IMMEDIATE")
        errors = []

        def writer():
            try:
                store.put(key, record)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.2)
        other.execute("COMMIT")
        other.close()
        thread.join(timeout=60)
        assert not thread.is_alive(), "writer deadlocked"
        assert errors == []
        assert store.get(key) is not None
