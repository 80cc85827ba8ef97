"""Tests of the content-addressed result store: keys, round trips, eviction.

Everything store-level runs against **both backends** (one JSON file per
record, single SQLite file) through the parametrised ``store`` fixture —
the backend must never change what a key means, what a miss is, or what
eviction keeps.  Layout-specific behaviour (tmp-file sweeping, fan-out
directories) and migration have their own backend-aware classes at the end.
"""

import dataclasses
import json

import pytest

from repro import api
from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.sim.simulator import DEFAULT_KERNEL
from repro.store import (
    DEFAULT_STORE_DIR,
    DirectoryBackend,
    ResultStore,
    SqliteBackend,
    jsonable_record,
    kernel_switches,
    migrate_store,
    task_key,
)
from repro.topology.multicluster import MultiClusterSpec
from repro.utils.validation import ValidationError

TINY = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")
FAST = SimulationConfig(measured_messages=300, warmup_messages=30, drain_messages=30, seed=5)

BACKENDS = ("directory", "sqlite")


@pytest.fixture(params=BACKENDS)
def store_backend(request):
    return request.param


@pytest.fixture
def store(tmp_path, store_backend):
    return ResultStore(tmp_path, backend=store_backend)


def tiny_scenario(**overrides) -> api.Scenario:
    defaults = dict(
        system=TINY,
        message=MessageSpec(32, 256),
        offered_traffic=(4e-4, 8e-4),
        sim=FAST,
        name="tiny",
    )
    defaults.update(overrides)
    return api.Scenario(**defaults)


class TestTaskKey:
    def test_key_is_stable_for_identical_tasks(self):
        assert task_key(tiny_scenario(), "sim", 4e-4) == task_key(
            tiny_scenario(), "sim", 4e-4
        )

    def test_engine_and_point_separate_keys(self):
        scenario = tiny_scenario()
        base = task_key(scenario, "sim", 4e-4)
        assert task_key(scenario, "model", 4e-4) != base
        assert task_key(scenario, "sim", 8e-4) != base

    def test_every_scenario_field_reaches_the_key(self):
        base = task_key(tiny_scenario(), "sim", 4e-4)
        variants = [
            tiny_scenario(message=MessageSpec(64, 256)),
            tiny_scenario(message=MessageSpec(32, 512)),
            tiny_scenario(sim=FAST.with_seed(6)),
            tiny_scenario(sim=dataclasses.replace(FAST, measured_messages=400)),
            tiny_scenario(pattern=api.PatternSpec("hotspot", {"hot_cluster": 0})),
            tiny_scenario(variance_approximation="zero"),
            tiny_scenario(name="renamed"),
            tiny_scenario(system=MultiClusterSpec(m=4, cluster_heights=(1, 1, 1, 1))),
            tiny_scenario(offered_traffic=(4e-4, 9e-4)),
        ]
        keys = {task_key(variant, "sim", 4e-4) for variant in variants}
        assert base not in keys
        assert len(keys) == len(variants)

    def test_kernel_switch_reaches_the_key(self, monkeypatch):
        scenario = tiny_scenario()
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        base = task_key(scenario, "sim", 4e-4)
        monkeypatch.setenv("REPRO_SIM_KERNEL", "generator")
        assert task_key(scenario, "sim", 4e-4) != base

    def test_explicit_default_switches_match_unset_environment(self, monkeypatch):
        """Setting the switch to its default value is the same key as unset."""
        scenario = tiny_scenario()
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        base = task_key(scenario, "sim", 4e-4)
        monkeypatch.setenv("REPRO_SIM_KERNEL", DEFAULT_KERNEL)
        assert task_key(scenario, "sim", 4e-4) == base

    def test_package_version_reaches_the_key(self, monkeypatch):
        """A version bump invalidates records produced by older code."""
        import repro

        base = task_key(tiny_scenario(), "sim", 4e-4)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert task_key(tiny_scenario(), "sim", 4e-4) != base

    def test_switches_snapshot_shape(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        assert kernel_switches() == {"sim_kernel": DEFAULT_KERNEL}


class TestStoreRoundTrip:
    def _record(self, lambda_g=4e-4):
        runset = api.run(
            tiny_scenario(offered_traffic=(lambda_g,)), engines=("sim",)
        )
        return runset.series("sim")[0]

    def test_put_get_round_trip_is_bit_identical(self, store):
        record = self._record()
        key = task_key(tiny_scenario(offered_traffic=(4e-4,)), "sim", 4e-4)
        store.put(key, record)
        loaded = store.get(key)
        # Serialised forms compare exactly (covers inf/nan fields too).
        assert json.dumps(jsonable_record(loaded), sort_keys=True) == json.dumps(
            jsonable_record(record), sort_keys=True
        )
        assert loaded.latency == record.latency
        assert loaded.simulation.mean_latency == record.simulation.mean_latency
        assert loaded.simulation.std_latency == record.simulation.std_latency
        assert loaded.simulation.seed == record.simulation.seed
        assert loaded.simulation.clusters == record.simulation.clusters

    def test_model_record_with_infinite_latency_round_trips(self, store):
        scenario = tiny_scenario(offered_traffic=(5e-2,))
        record = api.run(scenario, engines=("model",)).series("model")[0]
        assert record.saturated
        key = task_key(scenario, "model", 5e-2)
        store.put(key, record)
        loaded = store.get(key)
        assert loaded.saturated
        assert loaded.latency == float("inf")

    def test_missing_key_is_a_miss(self, store):
        assert store.get("0" * 64) is None

    def test_corrupt_payload_reads_as_a_miss(self, store):
        key = "ab" + "0" * 62
        store.backend.write_text(key, "{not json")
        assert store.get(key) is None
        store.backend.write_text(key, json.dumps({"schema": 999, "record": {}}))
        assert store.get(key) is None

    def test_truncated_record_is_a_miss_for_get_and_contains(self, store):
        """Regression: membership must run the same validation as get().

        ``__contains__`` used to answer existence-of-file, so a truncated
        record (a crashed writer, a full disk) was "in" the store while
        ``get`` correctly missed — callers branching on ``key in store``
        then trusted a record that could never be loaded.
        """
        record = self._record()
        key = task_key(tiny_scenario(offered_traffic=(4e-4,)), "sim", 4e-4)
        store.put(key, record)
        assert key in store
        text = store.backend.read_text(key)
        store.backend.write_text(key, text[: len(text) // 2])
        assert store.get(key) is None
        assert key not in store  # membership and get can never disagree
        # The next put heals the record under the same key.
        store.put(key, record)
        assert key in store and store.get(key) is not None

    def test_record_filed_under_another_key_is_a_miss(self, store):
        """A valid payload of key A copied under key B is never served as B's
        record: get and membership run the key check merge_stores runs."""
        record = self._record()
        key = task_key(tiny_scenario(offered_traffic=(4e-4,)), "sim", 4e-4)
        other = task_key(tiny_scenario(offered_traffic=(8e-4,)), "sim", 8e-4)
        store.put(key, record)
        store.backend.write_text(other, store.backend.read_text(key))
        assert store.get(other) is None
        assert other not in store
        assert store.get(key) is not None

    def test_contains_and_len(self, store):
        key = task_key(tiny_scenario(offered_traffic=(4e-4,)), "sim", 4e-4)
        assert key not in store
        assert len(store) == 0
        store.put(key, self._record())
        assert key in store
        assert len(store) == 1


class TestStoreLocation:
    def test_repro_store_env_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "elsewhere"))
        assert ResultStore().root == tmp_path / "elsewhere"

    def test_explicit_root_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env"))
        assert ResultStore(tmp_path / "explicit").root == tmp_path / "explicit"

    def test_default_location_is_the_user_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert ResultStore().root == DEFAULT_STORE_DIR


class TestBackendSelection:
    def test_default_backend_is_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
        assert ResultStore(tmp_path).backend.name == "directory"

    def test_env_selects_the_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "sqlite")
        assert ResultStore(tmp_path).backend.name == "sqlite"

    def test_constructor_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "sqlite")
        assert ResultStore(tmp_path, backend="directory").backend.name == "directory"

    def test_backend_instance_accepted(self, tmp_path):
        backend = SqliteBackend(tmp_path)
        assert ResultStore(tmp_path, backend=backend).backend is backend

    def test_existing_database_autodetects_sqlite(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
        ResultStore(tmp_path, backend="sqlite").backend.write_text("ab" + "0" * 62, "{}")
        assert ResultStore(tmp_path).backend.name == "sqlite"

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            ResultStore(tmp_path, backend="papyrus")

    def test_sqlite_has_no_per_record_paths(self, tmp_path):
        with pytest.raises(ValidationError):
            ResultStore(tmp_path, backend="sqlite").path_for("ab" + "0" * 62)


class TestEviction:
    def _fill(self, store, count):
        record = api.run(
            tiny_scenario(offered_traffic=(4e-4,)), engines=("model",)
        ).series("model")[0]
        keys = []
        for index in range(count):
            key = task_key(tiny_scenario(offered_traffic=(4e-4,)), "model", 4e-4 + index * 1e-6)
            store.put(key, record)
            keys.append(key)
        return keys

    def test_clear_removes_everything(self, store):
        self._fill(store, 3)
        assert store.clear() == 3
        assert len(store) == 0

    def test_prune_keeps_most_recently_used(self, store):
        keys = self._fill(store, 4)
        # Age everything, then touch the first key through a hit.
        for index, key in enumerate(keys):
            store.backend.set_last_used(key, 1_000_000 + index)
        assert store.get(keys[0]) is not None  # refreshes last_used to "now"
        removed = store.prune(2)
        assert removed == 2
        assert keys[0] in store  # most recently used survives
        assert keys[1] not in store

    def test_reads_refresh_recency(self, store):
        keys = self._fill(store, 3)
        for index, key in enumerate(keys):
            store.backend.set_last_used(key, 1_000_000 + index)
        before = store.backend.get_last_used(keys[0])
        assert store.get(keys[0]) is not None
        assert store.backend.get_last_used(keys[0]) > before

    def test_prune_rejects_negative(self, store):
        with pytest.raises(ValueError):
            store.prune(-1)

    def test_prune_to_zero_empties_the_store(self, store):
        self._fill(store, 3)
        assert store.prune(0) == 3
        assert len(store) == 0

    def test_size_bytes_tracks_contents(self, store):
        assert store.size_bytes() == 0
        self._fill(store, 2)
        assert store.size_bytes() > 0

    def test_describe_mentions_root_count_and_backend(self, store, store_backend):
        self._fill(store, 2)
        text = store.describe()
        assert str(store.root) in text
        assert "2 records" in text
        assert store_backend in text


class TestDirectoryHousekeeping:
    """The per-file layout's failure mode: tmp droppings from dead writers."""

    def _leak_tmp(self, store, *, age_seconds=0.0, payload=b"x" * 64):
        import os
        import time

        fanout = store.root / "ab"
        fanout.mkdir(parents=True, exist_ok=True)
        leaked = fanout / "tmp_leaked_by_dead_writer.tmp"
        leaked.write_bytes(payload)
        if age_seconds:
            stamp = time.time() - age_seconds
            os.utime(leaked, (stamp, stamp))
        return leaked

    def test_size_bytes_counts_leaked_tmp_files(self, tmp_path):
        store = ResultStore(tmp_path, backend="directory")
        leaked = self._leak_tmp(store)
        assert store.size_bytes() == leaked.stat().st_size
        assert len(store) == 0  # but they are not records

    def test_clear_leaves_an_empty_directory_tree(self, tmp_path):
        store = ResultStore(tmp_path, backend="directory")
        record = api.run(
            tiny_scenario(offered_traffic=(4e-4,)), engines=("model",)
        ).series("model")[0]
        store.put(task_key(tiny_scenario(), "model", 4e-4), record)
        self._leak_tmp(store)
        removed = store.clear()
        assert removed == 1  # records counted; tmp files swept besides
        assert list(tmp_path.iterdir()) == []  # no files, no fan-out dirs
        assert store.size_bytes() == 0

    def test_prune_sweeps_stale_tmp_but_spares_fresh_ones(self, tmp_path):
        store = ResultStore(tmp_path, backend="directory")
        stale = self._leak_tmp(store, age_seconds=7200.0)
        fresh = store.root / "ab" / "tmp_concurrent_writer.tmp"
        fresh.write_bytes(b"y" * 16)
        store.prune(10)
        assert not stale.exists()  # dead writer's dropping is gone
        assert fresh.exists()  # an in-flight put is never touched

    def test_interrupted_put_leak_is_eventually_reclaimed(self, tmp_path, monkeypatch):
        """An exception mid-write cleans up eagerly; a hard kill is swept later."""
        import os

        store = ResultStore(tmp_path, backend="directory")

        # Simulated hard kill: fdopen succeeds but the replace never runs.
        real_replace = os.replace

        def _dying_replace(src, dst, **kwargs):
            raise KeyboardInterrupt  # BaseException, like a signal

        key = task_key(tiny_scenario(), "model", 4e-4)
        record = api.run(
            tiny_scenario(offered_traffic=(4e-4,)), engines=("model",)
        ).series("model")[0]
        monkeypatch.setattr(os, "replace", _dying_replace)
        with pytest.raises(KeyboardInterrupt):
            store.put(key, record)
        monkeypatch.setattr(os, "replace", real_replace)
        # The eager cleanup already removed the tmp file...
        assert list(store.root.glob("*/*.tmp")) == []
        # ...and even a leak that survives (crash between fdopen and the
        # except clause) is reclaimed by clear().
        self._leak_tmp(store)
        store.clear()
        assert list(tmp_path.iterdir()) == []


class TestMigration:
    def _fill(self, store, count=3):
        record = api.run(
            tiny_scenario(offered_traffic=(4e-4,)), engines=("model",)
        ).series("model")[0]
        keys = []
        for index in range(count):
            key = task_key(tiny_scenario(), "model", 4e-4 + index * 1e-6)
            store.put(key, record)
            keys.append(key)
        return keys

    def test_round_trip_is_record_identical(self, tmp_path):
        store = ResultStore(tmp_path, backend="directory")
        keys = self._fill(store)
        originals = {key: store.backend.read_text(key) for key in keys}
        assert migrate_store(store, "sqlite") == 3
        assert store.backend.name == "sqlite"
        for key, text in originals.items():
            assert store.backend.read_text(key) == text  # byte-identical payloads
        assert migrate_store(store, "directory") == 3
        for key, text in originals.items():
            assert store.backend.read_text(key) == text

    def test_migration_preserves_lru_order(self, tmp_path):
        store = ResultStore(tmp_path, backend="directory")
        keys = self._fill(store)
        for index, key in enumerate(keys):
            store.backend.set_last_used(key, 1_000_000 + index)
        migrate_store(store, "sqlite")
        store.prune(1)
        assert keys[2] in store  # newest stamp survives the move
        assert keys[0] not in store

    def test_migration_flips_autodetection_both_ways(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
        store = ResultStore(tmp_path, backend="directory")
        self._fill(store)
        migrate_store(store, "sqlite")
        assert ResultStore(tmp_path).backend.name == "sqlite"
        assert len(ResultStore(tmp_path)) == 3
        migrate_store(store, "directory")
        assert not (tmp_path / SqliteBackend.DB_FILENAME).exists()
        assert ResultStore(tmp_path).backend.name == "directory"
        assert len(ResultStore(tmp_path)) == 3

    def test_migrating_to_the_current_backend_is_a_noop(self, tmp_path):
        store = ResultStore(tmp_path, backend="directory")
        self._fill(store)
        assert migrate_store(store, "directory") == 0
        assert len(store) == 3

    def test_interrupted_migration_is_resumable(self, tmp_path, monkeypatch):
        """Regression: records stranded by a mid-migration crash stay reachable.

        Auto-detection flips to SQLite as soon as store.db exists, so JSON
        records an interrupted directory->sqlite migration left behind would
        be invisible forever if re-running --migrate treated "already
        sqlite" as done.  Draining the complementary layout makes the same
        command resume instead.
        """
        monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
        store = ResultStore(tmp_path, backend="directory")
        keys = self._fill(store)
        # Simulate the interrupt: only the first record made it across.
        partial = SqliteBackend(tmp_path)
        partial.write_text(keys[0], store.backend.read_text(keys[0]))
        store.backend.delete(keys[0])
        # Auto-detection now opens the root as SQLite and sees one record;
        # the two stranded JSON files are unreachable through the store.
        resumed = ResultStore(tmp_path)
        assert resumed.backend.name == "sqlite"
        assert len(resumed) == 1
        # Re-running the same migration drains the stranded records...
        assert migrate_store(resumed, "sqlite") == 2
        assert len(resumed) == 3
        assert all(key in resumed for key in keys)
        assert list(DirectoryBackend(tmp_path).keys()) == []
        # ...and a duplicate key keeps the target's copy rather than a stale one.
        DirectoryBackend(tmp_path).write_text(keys[0], "{stale leftover")
        assert migrate_store(resumed, "sqlite") == 0
        assert resumed.get(keys[0]) is not None  # target copy untouched
        assert list(DirectoryBackend(tmp_path).keys()) == []  # stale copy dropped

    def test_unknown_target_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            migrate_store(ResultStore(tmp_path), "papyrus")

    def test_records_stay_loadable_after_migration(self, tmp_path):
        store = ResultStore(tmp_path, backend="directory")
        keys = self._fill(store)
        migrate_store(store, "sqlite")
        for key in keys:
            assert store.get(key) is not None
            assert key in store


def _fork_read_text(backend, key, conn):
    """Fork-child probe: read through a backend whose parent already holds a
    cached connection (module-level so the fork context can run it)."""
    conn.send(backend.read_text(key))
    conn.close()


class TestSqliteConnectionCache:
    """The per-thread connection cache behind warm serving reads."""

    def _seed(self, tmp_path):
        backend = SqliteBackend(tmp_path)
        backend.write_text("alpha", '{"v": 1}')
        return backend

    def test_same_thread_reuses_one_connection(self, tmp_path):
        backend = self._seed(tmp_path)
        first = backend._connect(create=False)
        second = backend._connect(create=False)
        assert first is second

    def test_two_backend_objects_share_the_thread_cache(self, tmp_path):
        self._seed(tmp_path)
        # The cache keys on the database file, not the backend instance —
        # the server and the executor hitting one store share one handle.
        assert SqliteBackend(tmp_path)._connect(create=False) is SqliteBackend(
            tmp_path
        )._connect(create=False)

    def test_threads_get_their_own_connections(self, tmp_path):
        import threading

        backend = self._seed(tmp_path)
        here = backend._connect(create=False)
        seen = {}

        def worker():
            seen["conn"] = backend._connect(create=False)
            seen["read"] = backend.read_text("alpha")

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["conn"] is not here  # sqlite3 thread affinity respected
        assert seen["read"] == '{"v": 1}'

    def test_deleted_database_is_noticed_not_served_from_a_ghost(self, tmp_path):
        backend = self._seed(tmp_path)
        assert backend.read_text("alpha") is not None  # handle now cached
        for leftover in tmp_path.glob(f"{SqliteBackend.DB_FILENAME}*"):
            leftover.unlink()
        # A cached handle would happily keep reading the unlinked inode;
        # the stat-first discipline must turn this into an honest miss...
        assert backend.read_text("alpha") is None
        assert list(backend.keys()) == []
        # ...and the next write rebuilds a fresh database.
        backend.write_text("beta", '{"v": 2}')
        assert backend.read_text("beta") == '{"v": 2}'

    def test_replaced_database_drops_the_stale_handle(self, tmp_path, monkeypatch):
        backend = self._seed(tmp_path)
        assert backend.read_text("alpha") is not None
        # Replace store.db wholesale (a different file at the same path —
        # what a restore-from-backup or an rsync deploy does).
        replacement = SqliteBackend(tmp_path / "staging")
        replacement.write_text("gamma", '{"v": 3}')
        replacement._evict_cached()
        for leftover in tmp_path.glob(f"{SqliteBackend.DB_FILENAME}*"):
            leftover.unlink()
        (tmp_path / "staging" / SqliteBackend.DB_FILENAME).rename(
            tmp_path / SqliteBackend.DB_FILENAME
        )
        assert backend.read_text("alpha") is None
        assert backend.read_text("gamma") == '{"v": 3}'

    def test_forked_child_abandons_the_parents_handle(self, tmp_path):
        import multiprocessing

        backend = self._seed(tmp_path)
        assert backend.read_text("alpha") is not None  # parent handle cached
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(
            target=_fork_read_text, args=(backend, "alpha", sender)
        )
        child.start()
        sender.close()
        try:
            assert receiver.poll(30)
            assert receiver.recv() == '{"v": 1}'  # child re-opened, pid-stamped
        finally:
            child.join()
            receiver.close()
        assert child.exitcode == 0
        assert backend.read_text("alpha") == '{"v": 1}'  # parent handle intact

    def test_exception_rolls_back_without_closing_the_handle(self, tmp_path):
        backend = self._seed(tmp_path)
        conn = backend._connect(create=False)
        with pytest.raises(RuntimeError):
            with backend._cursor(create=False):
                raise RuntimeError("mid-operation failure")
        assert backend._connect(create=False) is conn  # survived the failure
        assert backend.read_text("alpha") == '{"v": 1}'


class TestLiveMigration:
    """``--migrate`` under concurrent writers: late records must cross too."""

    def _fill(self, store, count=2):
        record = api.run(
            tiny_scenario(offered_traffic=(4e-4,)), engines=("model",)
        ).series("model")[0]
        text = None
        keys = []
        for index in range(count):
            key = task_key(tiny_scenario(), "model", 4e-4 + index * 1e-6)
            store.put(key, record)
            keys.append(key)
            text = store.backend.read_text(key)
        return keys, text

    def test_record_written_mid_migration_is_picked_up(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path, backend="directory")
        keys, text = self._fill(store)
        source = store.backend
        original_delete = source.delete
        late = {}

        def delete_then_write_late(key):
            original_delete(key)
            if not late:
                # A concurrent campaign lands a record *after* the initial
                # snapshot was taken — the re-snapshot pass must catch it.
                late["key"] = task_key(tiny_scenario(), "model", 9e-4)
                payload = dict(json.loads(text), key=late["key"])
                late["text"] = json.dumps(payload, sort_keys=True)
                source.write_text(late["key"], late["text"])

        monkeypatch.setattr(source, "delete", delete_then_write_late)
        moved = migrate_store(store, "sqlite")
        assert moved == 3
        assert store.backend.name == "sqlite"
        assert late["key"] in store
        assert store.backend.read_text(late["key"]) == late["text"]
        assert list(DirectoryBackend(tmp_path).keys()) == []

    def test_migration_terminates_under_constant_write_load(
        self, tmp_path, monkeypatch
    ):
        from repro.store import _MIGRATE_MAX_PASSES

        store = ResultStore(tmp_path, backend="directory")
        keys, text = self._fill(store)
        source = store.backend
        original_delete = source.delete
        injected = []

        def delete_and_always_write(key):
            original_delete(key)
            late = task_key(tiny_scenario(), "model", 1e-3 + len(injected) * 1e-6)
            source.write_text(late, text)
            injected.append(late)

        monkeypatch.setattr(source, "delete", delete_and_always_write)
        # A writer that never stops can starve a drain loop forever; the
        # pass cap bounds the chase and leaves stragglers resumable.
        moved = migrate_store(store, "sqlite")
        assert moved == 2 * _MIGRATE_MAX_PASSES
        stragglers = list(DirectoryBackend(tmp_path).keys())
        assert len(stragglers) == 2
        # Quiet store: re-running the same migration drains the stragglers.
        assert migrate_store(store, "sqlite") == 2
        assert list(DirectoryBackend(tmp_path).keys()) == []
        assert len(store) == len(keys) + len(injected)
