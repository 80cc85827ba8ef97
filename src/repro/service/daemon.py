"""The persistent worker-pool daemon behind the campaign service.

The ephemeral executor pays pool spawn plus per-worker warm-up for every
campaign; the recorded scaling curve showed that overhead *exceeding* the
simulation work at two workers.  A :class:`WorkerDaemon` amortises all of it
across a stream of campaigns:

* **one pool, many campaigns** — the :class:`ProcessPoolExecutor` outlives
  any single campaign; a broken pool (crashed worker) is restarted in place
  and campaigns in flight re-queue through their
  :class:`~repro.campaign.RetryPolicy` exactly as they would on an
  ephemeral pool.
* **warm worker-side engines** — workers cache one engine instance per
  (engine name, scenario) and prepare it once, when they first cache it:
  the topology and route tables compile into the worker's own
  process-local compile caches, and the memoised simulator and its warmed
  stream pool survive from task to task and from campaign to campaign.
  The serving process compiles nothing; it never runs the simulator.
* **one pid registry for the pool's lifetime** — workers tag their pid
  with the submitting execution's token and the task id, so when a crash
  breaks the shared pool each campaign on it can tell its own culprit from
  collateral damage caused by another campaign.

:class:`PersistentPoolBackend` adapts one daemon to the
:class:`~repro.campaign.WorkerBackend` protocol, one backend instance per
executor; any number of backends may share a daemon concurrently — that is
precisely how :mod:`repro.service.server` multiplexes clients.

Sharing has one documented caveat: a :class:`~repro.campaign.RetryPolicy`
*timeout kill* terminates the daemon's workers, which also breaks any other
campaign running on it (those campaigns recover through their own retry
rounds).  The serving front-end therefore defaults to no per-task timeout.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.api import Engine, Scenario
from repro.campaign import WorkerBackend, WorkerRegistry, _pool_evaluate_chunk
from repro.utils.validation import ValidationError

__all__ = ["PersistentPoolBackend", "WorkerDaemon"]


# --------------------------------------------------------------------------- #
# Worker-side state (one copy per worker process)
# --------------------------------------------------------------------------- #
#: (engine name, canonical scenario JSON) -> (engine, scenario) pairs whose
#: memoised simulator state stays warm across tasks and campaigns.  Bounded
#: like the compile caches: cleared wholesale when it outgrows the limit.
_WORKER_ENGINES: Dict[Tuple[str, str], Tuple[Engine, Scenario]] = {}
_WORKER_ENGINE_CACHE_LIMIT = 32


def _worker_engine(
    engine: Engine, scenario: Scenario, cache_key: Optional[Tuple[str, str]]
) -> Tuple[Engine, Scenario]:
    """The warm (engine, scenario) pair a daemon worker evaluates with.

    A pair seen for the first time is prepared here, once: that compiles
    the topology and route tables into this worker's compile caches, warms
    its stream pool and fills lazily compiled route rows before the first
    timed run.  Engines without a cache key (programmatic instances) arrive
    fresh with every chunk and are prepared every time; the compile caches
    make the repeat cheap.
    """
    if cache_key is not None:
        cached = _WORKER_ENGINES.get(cache_key)
        if cached is not None:
            # Evaluate against the *cached* scenario object: engine
            # memoisation is identity-based, so the freshly unpickled (but
            # equal) scenario would rebuild the simulator it came to reuse.
            return cached
        if len(_WORKER_ENGINES) >= _WORKER_ENGINE_CACHE_LIMIT:
            _WORKER_ENGINES.clear()
        _WORKER_ENGINES[cache_key] = (engine, scenario)
    prepare = getattr(engine, "prepare", None)
    if prepare is not None:
        prepare(scenario)
    return engine, scenario


def _daemon_evaluate_chunk(
    engine: Engine,
    scenario: Scenario,
    items: Sequence[Tuple[float, str]],
    registry: WorkerRegistry,
    cache_key: Optional[Tuple[str, str]],
) -> Any:
    """Daemon worker entry: reuse the warm engine, then run the chunk.

    Evaluation is :func:`repro.campaign._pool_evaluate_chunk`, the one
    chunk evaluator every backend shares, so the executor's crash/timeout
    machinery observes identical worker behaviour everywhere.
    """
    engine, scenario = _worker_engine(engine, scenario, cache_key)
    return _pool_evaluate_chunk(engine, scenario, items, registry)


# --------------------------------------------------------------------------- #
# The daemon
# --------------------------------------------------------------------------- #
class WorkerDaemon:
    """A long-lived worker pool shared by any number of campaigns.

    Lifecycle: construct (optionally :meth:`start`), run any number of
    campaigns through :class:`PersistentPoolBackend`, then :meth:`shutdown`,
    which stops the workers and removes the pid registry.  Also usable as a
    context manager.  All public methods are thread-safe; the serving
    front-end drives one daemon from several executor threads at once.

    Workers are spawned on demand by the pool (up to ``max_workers``) and
    persist until a crash or shutdown; a broken pool is replaced lazily on
    the next submission, and :attr:`restarts` counts those replacements.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max(
            1, int(max_workers) if max_workers is not None else (os.cpu_count() or 1)
        )
        self._lock = threading.RLock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_generation = 0
        #: the pid registry every worker of every pool generation tags
        self._registry = tempfile.TemporaryDirectory(
            prefix="repro-daemon-pids-", ignore_cleanup_errors=True
        )
        self.registry = self._registry.name
        self._closed = False
        #: tasks handed to workers (never incremented for store hits, which
        #: the executor serves before any submission — the "warm requests
        #: bypass workers" invariant is an assertion on this counter)
        self.tasks_dispatched = 0
        self.restarts = 0

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "WorkerDaemon":
        """Create the pool eagerly (otherwise the first submission does)."""
        with self._lock:
            self._ensure_pool()
        return self

    def __enter__(self) -> "WorkerDaemon":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ValidationError("worker daemon is shut down")
        if self._pool is None:
            # Spawn, not fork: the serving front-end submits from executor
            # threads while the event-loop thread runs, and forking a
            # multithreaded process leaves children deadlocked on inherited
            # locks.  Spawned workers inherit no compiled caches and compile
            # their own, once per (engine, scenario) pair they cache.
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
            self._pool_generation += 1
        return self._pool

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop the workers and remove the pid registry."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)
        self._registry.cleanup()

    # ------------------------------------------------------------- execution
    def submit_chunk(
        self,
        engine: Engine,
        scenario: Scenario,
        items: Sequence[Tuple[float, str]],
        execution: str,
        *,
        named_engine: bool,
    ) -> Future:
        """Hand a chunk of same-(engine, scenario) tasks to the pool.

        A pool that arrived broken is restarted once and the chunk
        resubmitted.  Only registry-named engines get a worker-side cache
        key (an engine *instance* may carry arbitrary programmatic state
        that must not be conflated across campaigns by name).  The future
        resolves to the per-task outcome list of
        :func:`repro.campaign._pool_evaluate_chunk`.
        """
        with self._lock:
            pool = self._ensure_pool()
            cache_key = (
                (engine.name, json.dumps(scenario.to_dict(), sort_keys=True))
                if named_engine
                else None
            )
            self.tasks_dispatched += len(items)
        args = (engine, scenario, tuple(items), (self.registry, execution), cache_key)
        try:
            return pool.submit(_daemon_evaluate_chunk, *args)
        except (BrokenProcessPool, RuntimeError):
            # The pool broke under another campaign between rounds; retire
            # it and resubmit on a fresh one (a second failure propagates).
            with self._lock:
                self._retire_pool(pool)
                pool = self._ensure_pool()
            return pool.submit(_daemon_evaluate_chunk, *args)

    def _retire_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop ``pool`` if it is still current (idempotent across sharers)."""
        if self._pool is pool:
            self._pool = None
            self.restarts += 1
            pool.shutdown(wait=False, cancel_futures=True)

    def pool_generation(self) -> int:
        """Ensure a pool exists and return its generation number."""
        with self._lock:
            self._ensure_pool()
            return self._pool_generation

    def restart(self, generation: Optional[int] = None) -> None:
        """Retire the current pool (if ``generation`` still names it).

        Several backends sharing one daemon all report the same broken pool;
        the generation guard makes sure it is only restarted once.  The
        replacement pool is created lazily by the next submission.
        """
        with self._lock:
            pool = self._pool
            if pool is None:
                return
            if generation is not None and generation != self._pool_generation:
                return
            self._retire_pool(pool)

    # ------------------------------------------------------------ observation
    def worker_snapshot(self) -> Dict[int, Any]:
        """pid -> process handle for the current pool's live workers."""
        with self._lock:
            if self._pool is None:
                return {}
            return dict(getattr(self._pool, "_processes", None) or {})

    def worker_pids(self) -> Tuple[int, ...]:
        return tuple(self.worker_snapshot())

    def kill_workers(self) -> None:
        """Terminate every worker (the executor's timeout reclaim path).

        This breaks the shared pool for *every* campaign running on the
        daemon; sharers recover through their retry rounds.
        """
        for process in self.worker_snapshot().values():
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead worker
                pass

    def stats(self) -> Dict[str, Any]:
        """A JSON-able health snapshot (the ``/health`` endpoint body).

        ``shared_memory_segments`` is always empty: the daemon owns no
        shared memory.  The key stays so health checks that sweep for
        leaked segments keep working.
        """
        with self._lock:
            return {
                "max_workers": self.max_workers,
                "worker_pids": sorted(self.worker_pids()),
                "tasks_dispatched": self.tasks_dispatched,
                "restarts": self.restarts,
                "shared_memory_segments": [],
                "closed": self._closed,
            }


# --------------------------------------------------------------------------- #
# The executor adapter
# --------------------------------------------------------------------------- #
class PersistentPoolBackend(WorkerBackend):
    """Run a campaign's pooled tasks on a shared :class:`WorkerDaemon`.

    One backend instance per :class:`~repro.campaign.CampaignExecutor`; any
    number of instances may point at the same daemon concurrently.  The
    executor's retry machinery is unchanged: a broken round retires the
    daemon's pool (once, generation-guarded) and the next round's
    submissions bring up a fresh one.  Nothing is prepared in this process
    (the inherited :meth:`~repro.campaign.WorkerBackend.prepare_entry` is a
    no-op): daemon workers prepare each pair themselves.  The daemon's
    lifecycle belongs to its owner, not to any one campaign's backend.
    """

    persistent = True

    def __init__(self, daemon: WorkerDaemon) -> None:
        self.daemon = daemon
        self.registry = daemon.registry
        self._workers: Dict[int, Any] = {}
        self._generation: Optional[int] = None

    def begin_round(self, workers: int) -> int:
        self._generation = self.daemon.pool_generation()
        return max(1, min(workers, self.daemon.max_workers))

    def submit_chunk(
        self,
        engine: Engine,
        scenario: Scenario,
        items: Sequence[Tuple[float, str]],
        execution: str,
        *,
        named_engine: bool,
    ) -> Future:
        return self.daemon.submit_chunk(
            engine, scenario, items, execution, named_engine=named_engine
        )

    def note_workers(self) -> None:
        self._workers = self.daemon.worker_snapshot()

    def dead_worker_pids(self) -> Tuple[int, ...]:
        return tuple(
            pid for pid, process in self._workers.items() if not process.is_alive()
        )

    def kill_workers(self) -> None:
        self.daemon.kill_workers()

    def end_round(self, *, broken: bool) -> None:
        if broken:
            self.daemon.restart(self._generation)
        self._workers = {}
