"""Tests of store merge/sync semantics and the hit/miss instrumentation.

Merging is how fleet results come home: records are content-addressed, so
a key collision *is* an identity and the destination's bytes win.  The
assertions here are deliberately byte-level — ``read_text`` before and
after — because "owner wins" and "byte-identical copy" are claims about
bytes, not about records comparing equal after a round trip.
"""

import json

import pytest

from repro import api
from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.store import (
    MergeReport,
    ResultStore,
    merge_stores,
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


def tiny_scenario(traffic) -> api.Scenario:
    return api.Scenario(
        system=TINY,
        message=MessageSpec(32, 256),
        offered_traffic=traffic,
        sim=FAST,
        name="tiny",
    )


def populate(store: ResultStore, *lambdas: float) -> list:
    """Compute model records for ``lambdas`` and file them under their keys."""
    keys = []
    for lambda_g in lambdas:
        scenario = tiny_scenario((lambda_g,))
        record = api.run(scenario, engines=("model",)).series("model")[0]
        key = task_key(scenario, "model", lambda_g)
        store.put(key, record)
        keys.append(key)
    return keys


class TestMergeStores:
    def test_disjoint_union_copies_byte_identical(self, tmp_path, store_backend):
        dest = ResultStore(tmp_path / "dest", backend=store_backend)
        source = ResultStore(tmp_path / "source", backend=store_backend)
        (kept,) = populate(dest, 4e-4)
        (incoming,) = populate(source, 8e-4)

        report = merge_stores(dest, source)

        assert report == MergeReport(copied=1, existing=0, corrupt=0, moved=False)
        assert len(dest) == 2
        # Verbatim text copy: same bytes, so same content address semantics.
        assert dest.backend.read_text(incoming) == source.backend.read_text(incoming)
        assert dest.get(kept) is not None and dest.get(incoming) is not None
        # --sync leaves the source untouched.
        assert len(source) == 1

    def test_identical_key_is_a_no_op_and_owner_wins(self, tmp_path, store_backend):
        """Both sides computed the same task: the key collides, and the
        destination's bytes must survive untouched (wall clock makes the two
        payloads differ, which is exactly what makes this assertable)."""
        dest = ResultStore(tmp_path / "dest", backend=store_backend)
        source = ResultStore(tmp_path / "source", backend=store_backend)
        (key,) = populate(dest, 4e-4)
        (source_key,) = populate(source, 4e-4)
        assert source_key == key  # same task, same content address
        owner_text = dest.backend.read_text(key)

        report = merge_stores(dest, source)

        assert report == MergeReport(copied=0, existing=1, corrupt=0, moved=False)
        assert dest.backend.read_text(key) == owner_text
        assert len(dest) == 1

    def test_corrupt_source_record_skipped_with_warning(self, tmp_path, store_backend):
        dest = ResultStore(tmp_path / "dest", backend=store_backend)
        source = ResultStore(tmp_path / "source", backend=store_backend)
        (good,) = populate(source, 4e-4)
        junk_key = "ab" + "0" * 62
        source.backend.write_text(junk_key, "{not json")
        mislabeled = "cd" + "0" * 62
        source.backend.write_text(mislabeled, source.backend.read_text(good))

        with pytest.warns(RuntimeWarning, match="corrupt record"):
            report = merge_stores(dest, source, move=True)

        assert report.copied == 1 and report.corrupt == 2
        assert dest.get(good) is not None
        assert junk_key not in dest and mislabeled not in dest
        # Corrupt records are evidence: never deleted, even when moving.
        assert source.backend.read_text(junk_key) == "{not json"
        assert source.backend.read_text(mislabeled) is not None

    def test_move_drains_the_source(self, tmp_path, store_backend):
        dest = ResultStore(tmp_path / "dest", backend=store_backend)
        source = ResultStore(tmp_path / "source", backend=store_backend)
        populate(dest, 4e-4)
        populate(source, 4e-4, 8e-4)  # one colliding, one new

        report = merge_stores(dest, source, move=True)

        assert report == MergeReport(copied=1, existing=1, corrupt=0, moved=True)
        assert len(dest) == 2
        assert len(source) == 0
        assert not (source.root / "store.db").exists()  # fully drained

    def test_last_used_stamp_carried(self, tmp_path, store_backend):
        dest = ResultStore(tmp_path / "dest", backend=store_backend)
        source = ResultStore(tmp_path / "source", backend=store_backend)
        (key,) = populate(source, 4e-4)
        stamp = source.backend.get_last_used(key)
        merge_stores(dest, source)
        assert dest.backend.get_last_used(key) == pytest.approx(stamp, abs=1.0)

    def test_merging_a_store_into_itself_rejected(self, tmp_path, store_backend):
        store = ResultStore(tmp_path, backend=store_backend)
        alias = ResultStore(tmp_path, backend=store_backend)
        # Neither root holds a store.db yet: the self-merge check runs first.
        with pytest.raises(ValidationError, match="into itself"):
            merge_stores(store, alias)

    @pytest.mark.parametrize("move", [False, True], ids=["sync", "merge"])
    def test_source_without_a_store_is_refused(self, tmp_path, move):
        """A mistyped source path, or a root in the old one-file-per-record
        layout, is an error, not an empty merge."""
        dest = ResultStore(tmp_path / "dest")
        populate(dest, 4e-4)
        with pytest.raises(ValidationError, match="no result store"):
            merge_stores(dest, ResultStore(tmp_path / "typo"), move=move)
        legacy = tmp_path / "legacy"
        (legacy / "ab").mkdir(parents=True)
        (legacy / "ab" / ("ab" + "0" * 62 + ".json")).write_text("{}")
        with pytest.raises(ValidationError, match="no result store"):
            merge_stores(dest, ResultStore(legacy), move=move)
        assert len(dest) == 1
        assert (legacy / "ab" / ("ab" + "0" * 62 + ".json")).exists()

    @pytest.mark.parametrize(
        "spelling", ["dotdot", "symlink"], ids=["dotdot", "symlink"]
    )
    def test_self_merge_check_sees_through_path_spellings(
        self, tmp_path, store_backend, spelling
    ):
        """Two spellings of one root are one store: a move would otherwise
        delete every record as "already present" in the destination."""
        root = tmp_path / "store"
        store = ResultStore(root, backend=store_backend)
        populate(store, 4e-4)
        if spelling == "dotdot":
            alias_root = tmp_path / "elsewhere" / ".." / "store"
        else:
            alias_root = tmp_path / "link"
            alias_root.symlink_to(root, target_is_directory=True)
        alias = ResultStore(alias_root, backend=store_backend)
        with pytest.raises(ValidationError, match="into itself"):
            merge_stores(store, alias, move=True)
        assert len(store) == 1

    @pytest.mark.parametrize("move", [False, True], ids=["sync", "merge"])
    def test_an_emptied_source_merges_nothing(self, tmp_path, store_backend, move):
        """A source whose ``store.db`` exists but holds no records is a store:
        the merge is empty, not refused."""
        dest = ResultStore(tmp_path / "dest", backend=store_backend)
        source = ResultStore(tmp_path / "source", backend=store_backend)
        populate(source, 4e-4)
        source.clear()
        report = merge_stores(dest, source, move=move)
        assert report == MergeReport(copied=0, existing=0, corrupt=0, moved=move)
        assert len(dest) == 0
        # A drained (here: already empty) source drops its database on --merge.
        assert (source.root / "store.db").exists() is not move

    @pytest.mark.parametrize("move", [False, True], ids=["sync", "merge"])
    def test_merging_into_a_fresh_root_creates_its_store(
        self, tmp_path, store_backend, move
    ):
        source = ResultStore(tmp_path / "source", backend=store_backend)
        keys = populate(source, 4e-4, 8e-4)
        texts = {key: source.backend.read_text(key) for key in keys}
        dest = ResultStore(tmp_path / "new" / "dest", backend=store_backend)

        report = merge_stores(dest, source, move=move)

        assert report.copied == 2
        assert (dest.root / "store.db").is_file()
        assert {key: dest.backend.read_text(key) for key in keys} == texts
        assert len(source) == (0 if move else 2)

    def test_merged_records_keep_their_lru_order(self, tmp_path, store_backend):
        """Carried ``last_used`` stamps keep eviction order: pruning the
        destination keeps the record the source used last."""
        dest = ResultStore(tmp_path / "dest", backend=store_backend)
        source = ResultStore(tmp_path / "source", backend=store_backend)
        keys = populate(source, 4e-4, 8e-4, 1.2e-3)
        for stamp, key in zip((3_000_000, 1_000_000, 2_000_000), keys):
            source.backend.set_last_used(key, stamp)
        merge_stores(dest, source)
        assert dest.prune(1) == 2
        assert list(dest.backend.keys()) == [keys[0]]

    def test_sync_leaves_the_source_stamps_alone(self, tmp_path, store_backend):
        dest = ResultStore(tmp_path / "dest", backend=store_backend)
        source = ResultStore(tmp_path / "source", backend=store_backend)
        keys = populate(source, 4e-4, 8e-4)
        for stamp, key in zip((1_000_000, 2_000_000), keys):
            source.backend.set_last_used(key, stamp)
        merge_stores(dest, source)
        assert [source.backend.get_last_used(key) for key in keys] == [1e6, 2e6]

    def test_a_second_sync_copies_nothing(self, tmp_path, store_backend):
        dest = ResultStore(tmp_path / "dest", backend=store_backend)
        source = ResultStore(tmp_path / "source", backend=store_backend)
        populate(source, 4e-4, 8e-4)
        assert merge_stores(dest, source).copied == 2
        again = merge_stores(dest, source)
        assert again == MergeReport(copied=0, existing=2, corrupt=0, moved=False)
        assert (len(dest), len(source)) == (2, 2)

    def test_describe_wording(self):
        sync = MergeReport(copied=3, existing=1, corrupt=0, moved=False)
        move = MergeReport(copied=3, existing=1, corrupt=2, moved=True)
        assert sync.describe() == "copied 3 records (1 already present, 0 corrupt skipped)"
        assert move.describe() == "moved 3 records (1 already present, 2 corrupt skipped)"


class TestStoreStats:
    def test_hit_miss_put_counters(self, tmp_path, store_backend):
        store = ResultStore(tmp_path, backend=store_backend)
        assert (store.hits, store.misses, store.puts) == (0, 0, 0)
        assert store.get("0" * 64) is None
        assert store.misses == 1
        (key,) = populate(store, 4e-4)
        assert store.puts == 1
        assert store.get(key) is not None
        assert store.hits == 1
        # Membership probes are not cache traffic: contains must not count.
        assert key in store
        assert (store.hits, store.misses) == (1, 1)

    def test_stats_payload(self, tmp_path, store_backend):
        store = ResultStore(tmp_path, backend=store_backend)
        (key,) = populate(store, 4e-4)
        store.get(key)
        stats = store.stats()
        assert stats["records"] == 1
        assert stats["backend"] == store_backend
        assert stats["size_bytes"] > 0
        assert stats["hits"] == 1 and stats["puts"] == 1
        assert stats["hit_rate"] == 1.0
        text = store.describe_stats()
        assert "hit rate" in text and store_backend in text
