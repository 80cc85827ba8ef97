"""Tests of the content-addressed result store: keys, round trips, eviction.

Store-level tests run through the ``store`` fixture, whose one parameter is
the one backend (a single SQLite file per root); the SQLite connection cache
has its own class at the end.
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
    STORE_SCHEMA,
    ResultStore,
    SqliteBackend,
    jsonable_record,
    kernel_switches,
    task_key,
)
from repro.topology.multicluster import MultiClusterSpec
from repro.utils.validation import ValidationError

TINY = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")
FAST = SimulationConfig(measured_messages=300, warmup_messages=30, drain_messages=30, seed=5)

BACKENDS = ("sqlite",)


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

    def test_records_survive_reopening_the_root(self, store, store_backend):
        """A second store object on the same root reads the first one's
        records: everything lives in ``store.db``, nothing in the object."""
        record = self._record()
        key = task_key(tiny_scenario(offered_traffic=(4e-4,)), "sim", 4e-4)
        store.put(key, record)
        reopened = ResultStore(store.root, backend=store_backend)
        assert len(reopened) == 1
        assert reopened.backend.read_text(key) == store.backend.read_text(key)
        assert json.dumps(jsonable_record(reopened.get(key)), sort_keys=True) == json.dumps(
            jsonable_record(record), sort_keys=True
        )


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


def _model_record():
    return api.run(
        tiny_scenario(offered_traffic=(4e-4,)), engines=("model",)
    ).series("model")[0]


class TestBackendSelection:
    def test_default_store_is_sqlite_and_writes_store_db(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.backend.name == "sqlite"
        assert not (tmp_path / "store.db").exists()  # created lazily
        store.put(task_key(tiny_scenario(), "model", 4e-4), _model_record())
        assert (tmp_path / "store.db").is_file()

    def test_backend_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "directory")
        store = ResultStore(tmp_path)
        assert store.backend.name == "sqlite"
        store.put(task_key(tiny_scenario(), "model", 4e-4), _model_record())
        assert (tmp_path / "store.db").is_file()
        assert list(tmp_path.glob("*/*.json")) == []

    def test_directory_backend_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="SQLite"):
            ResultStore(tmp_path, backend="directory")

    def test_backend_instance_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="SQLite"):
            ResultStore(tmp_path, backend=SqliteBackend(tmp_path))

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            ResultStore(tmp_path, backend="papyrus")

    @pytest.mark.parametrize("backend", [None, "sqlite"], ids=["default", "sqlite"])
    def test_accepted_backend_values_open_store_db(self, tmp_path, backend):
        store = ResultStore(tmp_path, backend=backend)
        assert isinstance(store.backend, SqliteBackend)
        assert store.backend.db_path == tmp_path / "store.db"

    @pytest.mark.parametrize(
        "backend",
        ["SQLite", "sqlite3", "", 1],
        ids=["capitalised", "sqlite3", "empty", "number"],
    )
    def test_rejection_names_the_value_and_sqlite(self, tmp_path, backend):
        with pytest.raises(ValidationError, match="SQLite") as caught:
            ResultStore(tmp_path, backend=backend)
        assert repr(backend) in str(caught.value)

    def test_directory_layout_root_reads_as_empty(self, tmp_path):
        """A root holding only one-JSON-file-per-record payloads is not read:
        its points miss and re-simulate."""
        key = task_key(tiny_scenario(), "model", 4e-4)
        payload = {"schema": STORE_SCHEMA, "key": key, "record": jsonable_record(_model_record())}
        (tmp_path / key[:2]).mkdir()
        (tmp_path / key[:2] / f"{key}.json").write_text(json.dumps(payload))
        store = ResultStore(tmp_path)
        assert len(store) == 0
        assert store.get(key) is None

    def test_directory_layout_files_are_left_in_place(self, tmp_path):
        """Writing to an old-layout root adds ``store.db`` beside the old
        files; nothing reads, moves or deletes them."""
        key = task_key(tiny_scenario(), "model", 4e-4)
        old = tmp_path / key[:2] / f"{key}.json"
        old.parent.mkdir()
        old.write_text("{}")
        store = ResultStore(tmp_path)
        store.put(key, _model_record())
        assert (tmp_path / "store.db").is_file()
        assert len(store) == 1 and store.get(key) is not None
        assert old.read_text() == "{}"


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

    def test_clear_keeps_the_database_usable(self, store):
        keys = self._fill(store, 2)
        store.clear()
        assert store.backend.db_path.is_file()
        assert store.size_bytes() == 0
        record = _model_record()
        store.put(keys[0], record)
        assert len(store) == 1
        assert store.get(keys[0]).latency == record.latency

    def test_housekeeping_on_a_fresh_root_creates_nothing(self, tmp_path, store):
        """Reads, counts and evictions of a root that was never written are
        all empty answers, and none of them creates ``store.db``."""
        root = tmp_path / "never-written"
        fresh = ResultStore(root, backend=store.backend.name)
        assert (len(fresh), fresh.size_bytes()) == (0, 0)
        assert fresh.get("0" * 64) is None and "0" * 64 not in fresh
        assert (fresh.clear(), fresh.prune(0)) == (0, 0)
        assert "0 records" in fresh.describe()
        assert not root.exists()

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

