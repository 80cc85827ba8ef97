"""Content-addressed result store: never simulate the same point twice.

Every (scenario, engine, operating point) task the campaign executor runs is
**deterministic**: the scenario carries the RNG seed and the statistics
budget, the engine is reconstructable from its registry name, and the only
ambient state that can change a result is the simulation-kernel switch
(``REPRO_SIM_KERNEL``).  That makes results *content-addressable*:
the SHA-256 of the canonical task description is a complete identity for the
record it produces, and the golden-seed discipline guarantees the cached
record is bit-identical to a fresh run.

:class:`ResultStore` validates and (de)serialises records; the bytes live in
one indexed SQLite file, ``<root>/store.db`` (:class:`SqliteBackend`: WAL
journal, ``last_used`` index), which holds paper-budget sweeps with thousands
of points in one inode and makes LRU eviction a single indexed query.
:func:`merge_stores` copies (``--sync``) or moves (``--merge``) the records
of another store in, owner-wins on identical keys.

The root defaults to ``~/.cache/repro`` and is overridden by the
``REPRO_STORE`` environment variable (or per instance).  Re-running a
campaign therefore re-simulates only the tasks whose content changed, and an
interrupted campaign resumes from the records already on disk.  A root that
holds only the older one-JSON-file-per-record layout (``<root>/ab/<key>.json``)
is not read: each of its points is a cache miss and re-simulates
bit-identically.

Eviction is explicit and size-based: :meth:`ResultStore.prune` keeps the
most recently used ``max_records`` entries (store reads refresh the record's
``last_used`` stamp), :meth:`ResultStore.clear` drops everything.  Nothing is
evicted automatically.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sqlite3
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from repro.api import RunRecord, Scenario
from repro.sim.simulator import DEFAULT_KERNEL
from repro.utils.serialization import from_jsonable, to_jsonable
from repro.utils.validation import ValidationError

__all__ = [
    "DEFAULT_STORE_DIR",
    "MergeReport",
    "ResultStore",
    "SqliteBackend",
    "kernel_switches",
    "merge_stores",
    "task_key",
]

#: Bumped whenever the record layout or the key recipe changes, so stores
#: written by older versions read as misses instead of mis-parsing.
STORE_SCHEMA = 1

#: Where records live when neither ``REPRO_STORE`` nor ``root`` is given.
DEFAULT_STORE_DIR = Path.home() / ".cache" / "repro"

#: How long a SQLite operation waits on a writer lock before giving up.
_SQLITE_BUSY_SECONDS = 30.0


def kernel_switches() -> Dict[str, str]:
    """The ambient switches that can change a simulation result.

    The one environment knob is the simulator's kernel selection; it picks
    between bit-identical-by-construction realisations, but a task key must
    still cover it — "bit-identical" is exactly the claim the golden-seed
    tests pin, and a cache must never be the thing that hides a divergence.
    """
    return {"sim_kernel": os.environ.get("REPRO_SIM_KERNEL", DEFAULT_KERNEL)}


def task_key(
    scenario: Scenario,
    engine: str,
    lambda_g: float,
    *,
    switches: Optional[Dict[str, str]] = None,
) -> str:
    """The content address (SHA-256 hex) of one (scenario, engine, point) task.

    The key hashes the scenario's full JSON form (system, message geometry,
    timing, traffic pattern, statistics budget *including the seed*, variance
    approximation and name), the engine's registry name, the operating point
    (as an exact ``float.hex`` so no decimal rounding can alias two loads)
    and the active kernel switch.  Any change to any of those misses the
    cache.
    """
    # Imported here, not at module level: repro/__init__ imports this module
    # (indirectly via repro.campaign) before __version__ is assigned.
    from repro import __version__

    payload = {
        "schema": STORE_SCHEMA,
        # The package version stands in for "the simulator's code": a PR
        # that changes behaviour bumps it, so records produced by older
        # code read as misses instead of masquerading as bit-identical.
        "version": __version__,
        "scenario": scenario.to_dict(),
        "engine": str(engine),
        "lambda_g": float(lambda_g).hex(),
        "switches": switches if switches is not None else kernel_switches(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# The SQLite backend
# --------------------------------------------------------------------------- #
class _CachedConnection:
    """One thread's live handle to one database file (plus its identity)."""

    __slots__ = ("conn", "ddl_done", "inode")

    def __init__(self, conn: sqlite3.Connection, inode: Optional[tuple]) -> None:
        self.conn = conn
        self.ddl_done = False
        self.inode = inode


class _ConnectionCache:
    __slots__ = ("pid", "entries")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.entries: Dict[str, _CachedConnection] = {}


_SQLITE_LOCAL = threading.local()


def _thread_connections() -> Dict[str, _CachedConnection]:
    """This thread's connection cache, discarded wholesale after a fork.

    SQLite handles must not cross ``fork()``: a child that finds the cache
    stamped with its parent's pid abandons those entries (without closing —
    the parent still owns them) and starts fresh.
    """
    pid = os.getpid()
    cache = getattr(_SQLITE_LOCAL, "cache", None)
    if cache is None or cache.pid != pid:
        cache = _ConnectionCache(pid)
        _SQLITE_LOCAL.cache = cache
    return cache.entries


class SqliteBackend:
    """Every record in one indexed SQLite file (``<root>/store.db``).

    The database runs in WAL mode (readers never block the writer and vice
    versa) with a busy timeout, so concurrent campaign workers, ``prune`` and
    ``clear`` serialise safely.  ``last_used`` is a real indexed column, so
    LRU eviction is one query instead of a stat() walk, and a paper-budget
    sweep with thousands of records costs one inode instead of thousands.

    Connections are cached per (process, thread, database file): the serving
    front-end answers a warm request with hundreds of record reads, and a
    fresh connection per read made connection setup the dominant cost of a
    fully cached campaign.  The cache is safe by construction — entries are
    thread-local (sqlite3's own thread affinity is never violated), a forked
    child abandons its parent's handles, and every operation stats the
    database file first, so a deleted or replaced ``store.db`` drops the
    stale handle instead of reading a ghost inode.
    """

    name = "sqlite"
    DB_FILENAME = "store.db"

    _SCHEMA_SQL = (
        "CREATE TABLE IF NOT EXISTS records ("
        " key TEXT PRIMARY KEY,"
        " payload TEXT NOT NULL,"
        " size INTEGER NOT NULL,"
        " created REAL NOT NULL,"
        " last_used REAL NOT NULL)",
        "CREATE INDEX IF NOT EXISTS records_last_used ON records(last_used)",
    )

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.db_path = self.root / self.DB_FILENAME

    # ------------------------------------------------------------ connections
    def _db_inode(self) -> Optional[tuple]:
        try:
            stat = os.stat(self.db_path)
        except OSError:
            return None
        return (stat.st_dev, stat.st_ino)

    def _evict_cached(self) -> None:
        """Drop (and close) this thread's cached handle to this database."""
        entry = _thread_connections().pop(str(self.db_path), None)
        if entry is not None:
            with contextlib.suppress(Exception):
                entry.conn.close()

    def _connect(self, *, create: bool) -> Optional[sqlite3.Connection]:
        """This thread's cached connection, or ``None`` when reading a store
        that isn't there."""
        inode = self._db_inode()
        if not create and inode is None:
            # Deleted out from under us: a stale handle would keep serving
            # the unlinked inode, so the miss must also drop it.
            self._evict_cached()
            return None
        cache = _thread_connections()
        path = str(self.db_path)
        entry = cache.get(path)
        if entry is not None and entry.inode != inode:
            # store.db was removed or replaced since this handle was opened.
            self._evict_cached()
            entry = None
        if entry is None:
            if create:
                self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(str(self.db_path), timeout=_SQLITE_BUSY_SECONDS)
            try:
                # synchronous is per-connection (read_text's LRU refresh
                # writes); WAL mode persists in the database header and is
                # switched on together with the DDL below — a schema-less
                # file on the read path just degrades to misses.
                conn.execute("PRAGMA synchronous=NORMAL")
            except BaseException:
                conn.close()
                raise
            entry = cache[path] = _CachedConnection(conn, self._db_inode())
        if create and not entry.ddl_done:
            self._create_schema(entry.conn)
            entry.ddl_done = True
        return entry.conn

    def _create_schema(self, conn: sqlite3.Connection) -> None:
        """Switch on WAL and create the table, retrying a lost WAL-switch race.

        Turning a fresh file into WAL upgrades a read lock to the write lock,
        and SQLite refuses that upgrade at once — without consulting the busy
        timeout — while another connection holds the write lock.  Writers
        that open a new store together hit exactly that, so the setup waits
        out the contention on its own deadline.  Every statement is
        idempotent, so a retry simply starts over.
        """
        deadline = time.monotonic() + _SQLITE_BUSY_SECONDS
        delay = 0.001
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                for statement in self._SCHEMA_SQL:
                    conn.execute(statement)
                conn.commit()
                return
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() >= deadline:
                    raise
                with contextlib.suppress(sqlite3.Error):
                    conn.rollback()
            time.sleep(delay)
            delay = min(2 * delay, 0.05)

    @contextlib.contextmanager
    def _cursor(self, *, create: bool) -> Iterator[Optional[sqlite3.Connection]]:
        conn = self._connect(create=create)
        if conn is None:
            yield None
            return
        try:
            yield conn
        except BaseException:
            # The handle outlives this operation: never leave a failed
            # transaction open on it.
            with contextlib.suppress(sqlite3.Error):
                conn.rollback()
            raise

    # ------------------------------------------------------------- payload I/O
    def read_text(self, key: str, *, touch: bool = True) -> Optional[str]:
        """The payload filed under ``key``; a read refreshes its
        ``last_used`` stamp unless ``touch`` is false."""
        try:
            with self._cursor(create=False) as conn:
                if conn is None:
                    return None
                row = conn.execute(
                    "SELECT payload FROM records WHERE key = ?", (key,)
                ).fetchone()
                if row is None:
                    return None
                if touch:
                    conn.execute(
                        "UPDATE records SET last_used = ? WHERE key = ?",
                        (time.time(), key),
                    )
                    conn.commit()
                return row[0]
        except sqlite3.Error:
            # A corrupt or locked-out database degrades to a miss.
            return None

    def write_text(self, key: str, text: str) -> Path:
        now = time.time()
        with self._cursor(create=True) as conn:
            conn.execute(
                "INSERT INTO records(key, payload, size, created, last_used)"
                " VALUES(?, ?, ?, ?, ?)"
                " ON CONFLICT(key) DO UPDATE SET"
                " payload = excluded.payload, size = excluded.size,"
                " last_used = excluded.last_used",
                (key, text, len(text.encode("utf-8")), now, now),
            )
            conn.commit()
        return self.db_path

    def delete(self, key: str) -> bool:
        try:
            with self._cursor(create=False) as conn:
                if conn is None:
                    return False
                cursor = conn.execute("DELETE FROM records WHERE key = ?", (key,))
                conn.commit()
                return cursor.rowcount > 0
        except sqlite3.Error:
            return False

    def keys(self) -> Iterator[str]:
        try:
            with self._cursor(create=False) as conn:
                if conn is None:
                    return iter(())
                rows = conn.execute("SELECT key FROM records").fetchall()
        except sqlite3.Error:
            return iter(())
        return iter([row[0] for row in rows])

    def _scalar(self, query: str, default: int = 0) -> int:
        try:
            with self._cursor(create=False) as conn:
                if conn is None:
                    return default
                row = conn.execute(query).fetchone()
                return int(row[0]) if row and row[0] is not None else default
        except sqlite3.Error:
            return default

    def count(self) -> int:
        return self._scalar("SELECT COUNT(*) FROM records")

    def size_bytes(self) -> int:
        return self._scalar("SELECT SUM(size) FROM records")

    # -------------------------------------------------------------- eviction
    def clear(self) -> int:
        try:
            with self._cursor(create=False) as conn:
                if conn is None:
                    return 0
                cursor = conn.execute("DELETE FROM records")
                conn.commit()
                return cursor.rowcount
        except sqlite3.Error:
            return 0

    def prune(self, max_records: int) -> int:
        try:
            with self._cursor(create=False) as conn:
                if conn is None:
                    return 0
                # One indexed query: everything outside the max_records most
                # recently used goes (key breaks last_used ties stably).
                cursor = conn.execute(
                    "DELETE FROM records WHERE key NOT IN ("
                    " SELECT key FROM records"
                    " ORDER BY last_used DESC, key LIMIT ?)",
                    (max_records,),
                )
                conn.commit()
                return cursor.rowcount
        except sqlite3.Error:
            return 0

    def housekeep(self) -> int:
        """Fold the WAL back into the main database file."""
        with contextlib.suppress(sqlite3.Error):
            with self._cursor(create=False) as conn:
                if conn is not None:
                    conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return 0

    def delete_database(self) -> None:
        """Remove the database files entirely (a drained merge source)."""
        self._evict_cached()
        for suffix in ("", "-wal", "-shm"):
            with contextlib.suppress(OSError):
                os.unlink(f"{self.db_path}{suffix}")

    # ------------------------------------------------------------------- LRU
    def get_last_used(self, key: str) -> Optional[float]:
        try:
            with self._cursor(create=False) as conn:
                if conn is None:
                    return None
                row = conn.execute(
                    "SELECT last_used FROM records WHERE key = ?", (key,)
                ).fetchone()
                return float(row[0]) if row is not None else None
        except sqlite3.Error:
            return None

    def set_last_used(self, key: str, stamp: float) -> None:
        with contextlib.suppress(sqlite3.Error):
            with self._cursor(create=False) as conn:
                if conn is not None:
                    conn.execute(
                        "UPDATE records SET last_used = ? WHERE key = ?",
                        (stamp, key),
                    )
                    conn.commit()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SqliteBackend({str(self.root)!r})"


class ResultStore:
    """A content-addressed on-disk cache of :class:`repro.api.RunRecord`\\ s.

    Parameters
    ----------
    root:
        Directory holding ``store.db``.  Defaults to the ``REPRO_STORE``
        environment variable, then ``~/.cache/repro``.  The directory and
        the database are created lazily on the first write.
    backend:
        ``None`` or ``"sqlite"``: SQLite is the one backend.
    """

    def __init__(
        self, root: str | Path | None = None, *, backend: Optional[str] = None
    ) -> None:
        if backend not in (None, SqliteBackend.name):
            raise ValidationError(
                f"unknown store backend {backend!r}: SQLite ('sqlite') is the "
                "only result-store backend"
            )
        if root is None:
            root = os.environ.get("REPRO_STORE") or DEFAULT_STORE_DIR
        self.root = Path(root).expanduser()
        self.backend = SqliteBackend(self.root)
        #: process-local effectiveness counters (this instance's traffic, not
        #: the store's history): ``hits``/``misses`` split every :meth:`get`,
        #: ``puts`` counts records written through :meth:`put`.
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # ------------------------------------------------------------- record I/O
    def get(self, key: str) -> Optional[RunRecord]:
        """The cached record for ``key``, or ``None`` on a miss.

        Unreadable, truncated or schema-mismatched payloads, and payloads
        filed under another key, read as misses (and will be overwritten by
        the next :meth:`put`), so a corrupted or stale store degrades to
        re-simulation, never to a crash or a wrong record.
        """
        record = self._get_validated(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def _get_validated(self, key: str) -> Optional[RunRecord]:
        """The validation path shared by :meth:`get` and :meth:`__contains__`
        — factored out so membership checks don't skew the hit/miss split."""
        text = self.backend.read_text(key)
        return None if text is None else _decode_payload(key, text)

    def put(self, key: str, record: RunRecord) -> Path:
        """Persist ``record`` under ``key`` (one transaction); return the
        database path."""
        payload = {"schema": STORE_SCHEMA, "key": key, "record": to_jsonable(record)}
        self.puts += 1
        return self.backend.write_text(key, json.dumps(payload, sort_keys=True))

    def __contains__(self, key: str) -> bool:
        # Membership runs the exact validation path get() runs, so `key in
        # store` and `store.get(key)` can never disagree: a truncated or
        # schema-mismatched payload is absent under both.
        return self._get_validated(key) is not None

    def __len__(self) -> int:
        return self.backend.count()

    # -------------------------------------------------------------- housekeeping
    def size_bytes(self) -> int:
        """Total bytes the stored record payloads occupy."""
        return self.backend.size_bytes()

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        return self.backend.clear()

    def prune(self, max_records: int) -> int:
        """Keep the ``max_records`` most recently used records, delete the rest.

        Recency is the record's ``last_used`` stamp, which :meth:`get`
        refreshes on every hit, so this is LRU eviction.  Returns how many
        records were removed.
        """
        if max_records < 0:
            raise ValueError(f"max_records must be >= 0, got {max_records}")
        return self.backend.prune(max_records)

    def describe(self) -> str:
        count = len(self)
        return (
            f"result store at {self.root} [{self.backend.name}]: "
            f"{count} records, {self.size_bytes()} bytes"
        )

    def stats(self) -> Dict[str, Any]:
        """A JSON-able snapshot: on-disk state plus this instance's counters."""
        reads = self.hits + self.misses
        return {
            "root": str(self.root),
            "backend": self.backend.name,
            "records": len(self),
            "size_bytes": self.size_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": (self.hits / reads) if reads else None,
        }

    def describe_stats(self) -> str:
        """The human-readable form of :meth:`stats` (``store --stats``)."""
        stats = self.stats()
        rate = stats["hit_rate"]
        rate_text = f"{rate:.1%}" if rate is not None else "n/a"
        return (
            f"result store at {stats['root']} [{stats['backend']}]:\n"
            f"  records:   {stats['records']}\n"
            f"  size:      {stats['size_bytes']} bytes\n"
            f"  hits:      {stats['hits']}\n"
            f"  misses:    {stats['misses']}\n"
            f"  puts:      {stats['puts']}\n"
            f"  hit rate:  {rate_text} (this process)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r}, backend={self.backend.name!r})"


@dataclass(frozen=True)
class MergeReport:
    """What one :func:`merge_stores` call did, for CLI reporting and tests."""

    #: records copied into the destination (new keys)
    copied: int
    #: keys the destination already held — owner wins, source copy untouched
    #: (or dropped, when moving)
    existing: int
    #: unreadable / schema-mismatched source records skipped with a warning
    corrupt: int
    #: whether source records were drained (``--merge``) or left (``--sync``)
    moved: bool

    def describe(self) -> str:
        action = "moved" if self.moved else "copied"
        return (
            f"{action} {self.copied} records "
            f"({self.existing} already present, {self.corrupt} corrupt skipped)"
        )


def merge_stores(
    dest: ResultStore, source: ResultStore, *, move: bool = False
) -> MergeReport:
    """Merge ``source``'s records into ``dest``, owner-wins on identical keys.

    This is how results computed elsewhere (another machine's store, a
    scratch store of an earlier run) join this one.  Records are
    content-addressed, so a key collision *is* an identity — both sides
    computed the same task — and the destination's copy wins: its bytes are
    left untouched and the source copy contributes nothing.  New keys are
    copied as verbatim payload text (byte-identical records, same SHA-256
    keys) with their ``last_used`` stamps carried over.

    A corrupt source record — unreadable, truncated, schema-mismatched, or
    filed under the wrong key — is **skipped with a warning** rather than
    aborting the merge, and is never deleted from the source (whatever broke
    it deserves a look, and a sync must not destroy the evidence).

    With ``move=True`` (CLI ``--merge``) merged records are drained from the
    source as they land — the two-store union ends up wholly in ``dest`` —
    and a fully drained source drops its ``store.db``.  With the default
    ``move=False`` (CLI ``--sync``) the source is read-only.

    A source root without a ``store.db`` (a mistyped path, or a store in the
    older one-file-per-record layout) raises :class:`ValidationError`
    instead of reporting an empty merge.
    """
    if dest.root.expanduser().resolve() == source.root.expanduser().resolve():
        raise ValidationError(f"cannot merge a store into itself ({dest.root})")
    if not source.backend.db_path.is_file():
        raise ValidationError(
            f"no result store at {source.root} (no {SqliteBackend.DB_FILENAME})"
        )
    copied = existing = corrupt = 0
    for key in list(source.backend.keys()):
        # Untouched reads: the stamp carried below is the source's own, and
        # a sync leaves the source's eviction order as it found it.
        text = source.backend.read_text(key, touch=False)
        if text is None:
            continue  # lost a race with a concurrent eviction
        if _decode_payload(key, text) is None:
            corrupt += 1
            warnings.warn(
                f"skipping corrupt record {key} in {source.root}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        if dest.backend.get_last_used(key) is not None:
            existing += 1
            if move:
                source.backend.delete(key)
            continue
        stamp = source.backend.get_last_used(key)
        dest.backend.write_text(key, text)
        if stamp is not None:
            dest.backend.set_last_used(key, stamp)
        if move:
            source.backend.delete(key)
        copied += 1
    if move:
        source.backend.housekeep()
        if source.backend.count() == 0:
            source.backend.delete_database()
    return MergeReport(copied=copied, existing=existing, corrupt=corrupt, moved=move)


def _decode_payload(key: str, text: str) -> Optional[RunRecord]:
    """The record ``text`` holds if it is a well-formed, current-schema record
    payload filed under its own ``key``; ``None`` otherwise."""
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != STORE_SCHEMA
        or payload.get("key") != key
    ):
        return None
    try:
        return from_jsonable(RunRecord, payload["record"])
    except (TypeError, ValueError, KeyError):
        return None


def jsonable_record(record: RunRecord) -> Dict[str, Any]:
    """The plain-JSON form of a record (exposed for result dumps and tests)."""
    return to_jsonable(record)
