"""The Campaign API: multi-scenario execution plans with streaming progress.

The paper's deliverable is a model-vs-simulation *comparison across many
system organisations*; one :func:`repro.api.run` call evaluates exactly one
scenario, so every figure/table/ablation driver used to hand-roll its own
loop and pay a fresh process pool per scenario.  This module treats the whole
experiment campaign as one schedulable unit:

* :class:`Campaign` — a declarative, JSON round-trippable plan holding many
  named entries, each an independent (:class:`~repro.api.Scenario`, engine
  set) pair.  Plans serialise with :meth:`Campaign.to_json` /
  :meth:`Campaign.from_json`; plan files may also reference registered
  scenario *names* with per-entry ``points``/``budget``/``seed`` overrides,
  so a campaign manifest is a small versionable artifact.
* :class:`CampaignExecutor` — flattens every (scenario, engine, lambda_g)
  task of the plan into **one work queue** and fans the expensive misses out
  over a **single shared process pool**: scenario-level parallelism for
  free, no per-scenario pool churn.  That pool is a :class:`WorkerPool`:
  the executor starts its own for its pooled misses and shuts it down when
  the execution ends, or runs on one passed as ``pool=`` — the campaign
  service shares one warm pool across every campaign it serves.  Execution
  is *streaming* — :meth:`~CampaignExecutor.execute` yields a
  :class:`TaskCompleted` event (carrying the :class:`~repro.api.RunRecord`)
  per finished task plus :class:`CampaignProgress` events with done/total
  counts and elapsed time — and :meth:`~CampaignExecutor.collect` is the
  blocking wrapper that preserves ``run()``-style ergonomics, assembling
  one :class:`~repro.api.RunSet` per entry.  Each pooled task is one
  future on the pool, and every attempt, inline or pooled, turns into its
  event through one path (the execution's ledger).
* a :class:`RetryPolicy` makes unattended campaigns survive their workers:
  a pooled task whose worker **crashes** (the pool breaks) or **hangs**
  (exceeds the per-task timeout; the worker is killed, and under a timeout
  every task is pooled) is re-queued onto a fresh pool up to
  ``max_attempts`` times — each re-queue streams a
  :class:`TaskRetried` event — and a task that exhausts its attempts streams
  a structured :class:`TaskFailed` event instead of taking down the whole
  campaign.  :meth:`~CampaignExecutor.collect` then either raises a
  :class:`CampaignExecutionError` (``strict=True``, the default) or returns
  partial :class:`~repro.api.RunSet`\\ s with the failures attached as
  metadata (``strict=False``).  Retried tasks are re-evaluated from the
  scenario seed alone, so a retried record is bit-identical to one produced
  by a crash-free run.
* the **content-addressed result store** (:mod:`repro.store`) backs every
  execution by default: tasks are keyed by a hash of the scenario JSON,
  engine name, operating point (the seed lives in the scenario) and the
  active kernel switch, so re-running a campaign re-simulates
  only what changed and an interrupted campaign resumes — the golden-seed
  discipline guarantees cached records are bit-identical to fresh runs.

:func:`repro.api.run` is a thin one-scenario campaign over this machinery.

Quick start::

    from repro import api
    from repro.campaign import Campaign, CampaignExecutor

    plan = Campaign.from_scenarios(("fig3", "fig4"), points=6)
    for event in CampaignExecutor(plan, parallel=True).execute():
        print(event)                      # records + progress, as they finish
    result = CampaignExecutor(plan, parallel=True).collect()
    print(result.describe())              # second pass: all cache hits
    fig3 = result.runset("fig3")
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import secrets
import signal
import tempfile
import threading
import time
from concurrent.futures import (
    CancelledError,
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import repro.api as api
from repro.api import (
    Engine,
    EngineLike,
    ENGINE_REGISTRY,
    RunRecord,
    RunSet,
    Scenario,
    resolve_engines,
)
from repro.store import ResultStore, kernel_switches, task_key
from repro.utils.serialization import dump_json, from_jsonable, load_json, to_jsonable
from repro.utils.validation import ValidationError

__all__ = [
    "Campaign",
    "CampaignEntry",
    "CampaignEvent",
    "CampaignExecutionError",
    "CampaignExecutor",
    "CampaignProgress",
    "CampaignResult",
    "CampaignTask",
    "RetryPolicy",
    "TaskCompleted",
    "TaskFailed",
    "TaskRetried",
    "WorkerPool",
    "resolve_store",
    "result_payload",
    "run_campaign",
]


# --------------------------------------------------------------------------- #
# The declarative plan
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignEntry:
    """One named scenario of a campaign, with its own engine set.

    ``engines`` follows the :func:`repro.api.run` convention: registry names
    (JSON-safe, cacheable in the result store) or engine *instances*
    (programmatic patterns/overrides; executable but neither serialisable
    nor cached, because an instance's construction is not part of the task's
    content address).
    """

    scenario: Scenario
    engines: Tuple[EngineLike, ...] = ("model", "sim")
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "engines", tuple(self.engines))
        if not self.engines:
            raise ValidationError("a campaign entry needs at least one engine")
        if not self.scenario.offered_traffic:
            raise ValidationError("offered_traffic must contain at least one value")
        for engine in self.engines:
            if isinstance(engine, str) and engine not in ENGINE_REGISTRY:
                raise ValidationError(
                    f"unknown engine {engine!r}; registered: {sorted(ENGINE_REGISTRY)}"
                )


@dataclass(frozen=True)
class Campaign:
    """A declarative multi-scenario execution plan."""

    entries: Tuple[CampaignEntry, ...]
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValidationError("a campaign needs at least one entry")
        self.labels  # noqa: B018 - validates label uniqueness eagerly

    @property
    def labels(self) -> Tuple[str, ...]:
        """One unique label per entry (entry label, scenario name, or index)."""
        labels: List[str] = []
        for index, entry in enumerate(self.entries):
            label = entry.label or entry.scenario.name or f"entry{index}"
            if label in labels:
                raise ValidationError(f"duplicate campaign entry label {label!r}")
            labels.append(label)
        return tuple(labels)

    @property
    def total_tasks(self) -> int:
        """Number of flattened (scenario, engine, operating point) tasks."""
        return sum(
            len(entry.engines) * len(entry.scenario.offered_traffic)
            for entry in self.entries
        )

    def describe(self) -> str:
        label = self.name or "campaign"
        return (
            f"{label}: {len(self.entries)} scenarios, {self.total_tasks} tasks "
            f"({', '.join(self.labels)})"
        )

    # ------------------------------------------------------------ construction
    @classmethod
    def from_scenarios(
        cls,
        scenarios: Iterable[Union[str, Scenario]],
        *,
        engines: Sequence[EngineLike] = ("model", "sim"),
        points: int = 8,
        budget: str = "quick",
        seed: int | None = 0,
        name: str = "",
    ) -> "Campaign":
        """A campaign over registered scenario names and/or Scenario objects."""
        entries = []
        for item in scenarios:
            scenario = (
                api.scenario(item, points=points, budget=budget, seed=seed)
                if isinstance(item, str)
                else item
            )
            entries.append(CampaignEntry(scenario=scenario, engines=tuple(engines)))
        return cls(entries=tuple(entries), name=name)

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON plan (the inverse of :meth:`from_dict`).

        Only registry-name engines serialise; campaigns holding engine
        *instances* are executable but not round-trippable.
        """
        entries = []
        for entry in self.entries:
            for engine in entry.engines:
                if not isinstance(engine, str):
                    raise ValidationError(
                        "campaigns holding engine instances cannot be serialised; "
                        "use registry engine names"
                    )
            item: Dict[str, Any] = {
                "scenario": entry.scenario.to_dict(),
                "engines": list(entry.engines),
            }
            if entry.label:
                item["label"] = entry.label
            entries.append(item)
        return {"name": self.name, "entries": entries}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Campaign":
        """Rebuild a plan from :meth:`to_dict` output or a hand-written manifest.

        An entry's ``scenario`` may be a full scenario object or a registered
        scenario *name*; named entries accept ``points``, ``budget`` and
        ``seed`` fields, and full-scenario entries accept ``budget``/``seed``
        as statistics-budget overrides.  Any malformed part of the plan
        raises :class:`ValidationError`.
        """
        if not isinstance(data, dict) or "entries" not in data:
            raise ValidationError("a campaign plan must be an object with 'entries'")
        try:
            entries = tuple(cls._entry(item) for item in data["entries"])
            name = from_jsonable(str, data.get("name", ""))
        except ValidationError:
            raise
        except (TypeError, ValueError, KeyError) as error:
            raise ValidationError(f"malformed campaign plan: {error}") from error
        return cls(entries=entries, name=name)

    @staticmethod
    def _entry(item: Any) -> CampaignEntry:
        """One plan entry of :meth:`from_dict`."""
        if not isinstance(item, dict) or "scenario" not in item:
            raise ValidationError("each campaign entry must be an object with 'scenario'")
        target = item["scenario"]
        budget = from_jsonable(Optional[str], item.get("budget"))
        seed = from_jsonable(Optional[int], item.get("seed"))
        points = from_jsonable(int, item.get("points", 8))
        if isinstance(target, str):
            scenario = api.scenario(
                target,
                points=points,
                budget=budget if budget is not None else "quick",
                seed=seed if seed is not None else 0,
            )
        elif isinstance(target, dict):
            scenario = Scenario.from_dict(target)
            if "points" in item:
                scenario = scenario.with_points(points)
            if budget is not None:
                scenario = scenario.with_sim(
                    api.simulation_budget(
                        budget, seed if seed is not None else scenario.sim.seed
                    )
                )
            elif seed is not None:
                scenario = scenario.with_seed(seed)
        else:
            raise ValidationError(
                "entry 'scenario' must be a registered name or a scenario object"
            )
        return CampaignEntry(
            scenario=scenario,
            engines=from_jsonable(Tuple[str, ...], item.get("engines", ["model", "sim"])),
            label=from_jsonable(str, item.get("label", "")),
        )

    def to_json(self, path: str | Path) -> Path:
        """Write the plan to ``path`` as JSON and return the path."""
        return dump_json(self.to_dict(), path)

    @classmethod
    def from_json(cls, path: str | Path) -> "Campaign":
        """Load a plan previously written with :meth:`to_json` (or hand-written)."""
        data = load_json(path)
        if not isinstance(data, dict):
            raise ValidationError(f"campaign plan {path} does not hold a JSON object")
        return cls.from_dict(data)


# --------------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """How the executor treats tasks whose workers fail.

    Attributes
    ----------
    max_attempts:
        Total attempts a task gets (first run included).  ``1`` means no
        retries: a failing task goes straight to :class:`TaskFailed`.
    timeout_seconds:
        Per-task wall-clock budget, measured from the moment a worker picks
        the task up.  A pooled task over budget has its worker killed and is
        re-queued (the timeout is the only way a hung worker ever returns);
        ``None`` disables the timeout.  With a timeout set, every task runs
        on the worker pool, cheap engines included, so every task can be
        reclaimed; without ``parallel`` the pool has one worker, so the
        campaign stays sequential.  Without a timeout, cheap engines (and
        every engine of a sequential campaign) run in the calling process.

    A retried task re-runs at once, from its seed: a crash or a hang is not
    load-dependent, so waiting before the retry buys nothing.
    """

    max_attempts: int = 3
    timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValidationError(
                f"timeout_seconds must be > 0 or None, got {self.timeout_seconds}"
            )


#: The executor default: one attempt, no timeout.  Failures still surface as
#: structured :class:`TaskFailed` events (never a mid-stream exception), so
#: the pre-retry behaviour — collect() raising on the first failure — is
#: preserved through strict collection rather than a crashed campaign.
NO_RETRY = RetryPolicy(max_attempts=1)


# --------------------------------------------------------------------------- #
# Tasks and streaming events
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignTask:
    """One flattened unit of work: one engine at one operating point."""

    entry_index: int
    label: str
    engine_index: int
    engine: str
    point_index: int
    lambda_g: float
    #: content address in the result store; ``None`` when the task is not
    #: cacheable (engine given as an instance, or the store is disabled)
    cache_key: Optional[str] = None

    @property
    def task_id(self) -> str:
        """Human-stable identity used by fault injection and failure reports."""
        return f"{self.label}:{self.engine}:{self.point_index}"


@dataclass(frozen=True)
class TaskCompleted:
    """Streamed per finished task: the record plus progress counters."""

    task: CampaignTask
    record: RunRecord
    from_cache: bool
    done: int
    total: int
    elapsed_seconds: float


@dataclass(frozen=True)
class TaskRetried:
    """Streamed when a failed task is re-queued for another attempt."""

    task: CampaignTask
    #: the attempt number that just failed (1-based)
    attempt: int
    max_attempts: int
    #: what happened: exception repr, "worker crashed …" or "timed out …"
    error: str
    elapsed_seconds: float


@dataclass(frozen=True)
class TaskFailed:
    """Streamed when a task exhausts its retry budget: the structured failure.

    The campaign keeps going; strict :meth:`CampaignExecutor.collect` raises
    a :class:`CampaignExecutionError` carrying these once the stream drains,
    and non-strict collection returns them on the :class:`CampaignResult`.
    """

    task: CampaignTask
    #: attempts consumed: the policy's max_attempts, or 1 when no retry
    #: could succeed (a pooled engine that cannot be pickled, or whose
    #: preparation raised before the pool started)
    attempts: int
    error: str
    done: int
    total: int
    elapsed_seconds: float


@dataclass(frozen=True)
class CampaignProgress:
    """Streamed at the start and end of an execution (and cheap to emit)."""

    done: int
    total: int
    cache_hits: int
    elapsed_seconds: float
    failed: int = 0
    retries: int = 0


CampaignEvent = Union[TaskCompleted, TaskRetried, TaskFailed, CampaignProgress]


class CampaignExecutionError(RuntimeError):
    """Raised by strict collection when tasks exhausted their retry budget."""

    def __init__(self, failures: Sequence[TaskFailed]) -> None:
        self.failures: Tuple[TaskFailed, ...] = tuple(failures)
        lines = [
            f"{len(self.failures)} campaign task(s) failed after exhausting retries:"
        ]
        lines.extend(
            f"  {failure.task.task_id} (lambda_g={failure.task.lambda_g:.6g}, "
            f"{failure.attempts} attempts): {failure.error}"
            for failure in self.failures
        )
        super().__init__("\n".join(lines))


# --------------------------------------------------------------------------- #
# The result of a collected execution
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignResult:
    """Everything one :meth:`CampaignExecutor.collect` call produced."""

    campaign: Campaign
    labels: Tuple[str, ...]
    runsets: Tuple[RunSet, ...]
    cache_hits: int
    cache_misses: int
    elapsed_seconds: float
    #: tasks that exhausted their retry budget (non-strict collection only;
    #: their records are absent from the runsets)
    failures: Tuple[TaskFailed, ...] = ()
    #: re-queues that happened along the way (0 on a healthy campaign)
    task_retries: int = 0

    @property
    def total_tasks(self) -> int:
        return self.cache_hits + self.cache_misses + len(self.failures)

    def runset(self, label: str) -> RunSet:
        """The :class:`~repro.api.RunSet` of the entry labelled ``label``."""
        for candidate, runset in zip(self.labels, self.runsets):
            if candidate == label:
                return runset
        raise ValidationError(
            f"campaign has no entry labelled {label!r}; available: {self.labels}"
        )

    def __iter__(self) -> Iterator[Tuple[str, RunSet]]:
        return iter(zip(self.labels, self.runsets))

    def describe(self) -> str:
        text = (
            f"{self.campaign.describe()}; {self.total_tasks} tasks in "
            f"{self.elapsed_seconds:.2f} s ({self.cache_hits} cached, "
            f"{self.cache_misses} computed)"
        )
        if self.task_retries:
            text += f", {self.task_retries} retries"
        if self.failures:
            text += f", {len(self.failures)} FAILED"
        return text


def result_payload(
    result: CampaignResult,
    *,
    parallel: bool,
    store: Optional[ResultStore],
    **execution: Any,
) -> Dict[str, Any]:
    """The JSON form of a collected campaign: every entry's run set plus
    execution stats.

    ``repro campaign run --json`` writes it and the campaign service sends
    it as the terminal ``result`` event; the server passes its own extra
    ``execution`` keys (its workers and dispatch count).
    """
    return {
        "name": result.campaign.name,
        "labels": list(result.labels),
        "runsets": {label: to_jsonable(runset) for label, runset in result},
        "execution": {
            "tasks": result.total_tasks,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "elapsed_seconds": result.elapsed_seconds,
            "parallel": parallel,
            "store": str(store.root) if store is not None else None,
            "store_backend": store.backend.name if store is not None else None,
            **execution,
            "task_retries": result.task_retries,
            "failures": [
                {
                    "task": failure.task.task_id,
                    "lambda_g": failure.task.lambda_g,
                    "attempts": failure.attempts,
                    "error": failure.error,
                }
                for failure in result.failures
            ],
        },
    }


# --------------------------------------------------------------------------- #
# Worker-side entry point and fault injection
# --------------------------------------------------------------------------- #
#: Environment variable holding the fault-injection spec (tests / CI only).
FAULT_ENV = "REPRO_CAMPAIGN_FAULT"

#: Sentinel for "crash attribution not attempted yet" inside a pool round
#: (``None`` already means "attempted and failed").
_UNDETERMINED = object()


def _maybe_inject_fault(task_id: str) -> None:
    """Deterministic worker-fault injection for tests and the CI crash job.

    ``REPRO_CAMPAIGN_FAULT`` holds a JSON object ``{"kind": "crash"|"hang",
    "task": "<label>:<engine>:<point_index>", "marker": "<path>"}``.  The
    matching pooled task triggers the fault exactly once — the marker file
    records that it fired — so the retried attempt succeeds and a test can
    prove crash recovery produces records identical to a clean run.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    try:
        fault = json.loads(spec)
        kind = fault["kind"]
        target = fault["task"]
        marker = Path(fault["marker"])
    except (ValueError, KeyError, TypeError):
        return
    if target != task_id or marker.exists():
        return
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.touch()
    if kind == "crash":
        os._exit(3)  # die the way a segfaulting / OOM-killed worker dies
    if kind == "hang":
        time.sleep(3600.0)  # wedge: only the task timeout can reclaim this


#: Where a worker tags its pid: ``(registry directory, execution token)``.
#: The directory belongs to the pool; the token to one
#: :meth:`CampaignExecutor.execute` call, so executions sharing a pool (the
#: service's, serving several campaigns) can tell their tasks apart.
WorkerRegistry = Tuple[str, str]


def _note_worker_task(registry: WorkerRegistry, task_id: str) -> None:
    """Tag this worker's pid with the execution and task it is about to run.

    The executor reads these tags when a pool breaks: the dead pids name the
    tasks that actually took workers down, so innocent casualties of the
    shared crash re-queue without being charged an attempt.  Written before
    the fault hook so even an injected crash leaves its tag behind.
    """
    directory, execution = registry
    try:
        Path(directory, str(os.getpid())).write_text(
            f"{execution} {task_id}", encoding="utf-8"
        )
    except OSError:  # pragma: no cover - registry loss degrades to charge-all
        pass


def _read_worker_tag(directory: str, pid: int) -> Optional[Tuple[str, str]]:
    """The ``(execution token, task id)`` a worker last tagged, if any."""
    try:
        tag = Path(directory, str(pid)).read_text(encoding="utf-8")
    except OSError:
        return None  # died before tagging any task: attributes nothing
    execution, _, task_id = tag.partition(" ")
    return execution, task_id


#: A worker-side engine cache key: (engine name, canonical scenario JSON).
WorkerKey = Tuple[str, str]

#: Worker-side: cache key -> (engine, scenario) pairs whose memoised
#: simulator state stays warm across tasks and campaigns.  Bounded like the
#: compile caches: cleared wholesale when it outgrows the limit.
_WORKER_ENGINES: Dict[WorkerKey, Tuple[Engine, Scenario]] = {}
_WORKER_ENGINE_CACHE_LIMIT = 32


def _worker_engine(
    engine: Engine, scenario: Scenario, cache_key: Optional[WorkerKey]
) -> Tuple[Engine, Scenario]:
    """The warm (engine, scenario) pair a pool worker evaluates with.

    A pair seen for the first time is prepared here, once: that compiles
    the topology and route tables into this worker's compile caches, warms
    its stream pool and fills lazily compiled route rows before the first
    timed run.  Engines without a cache key (programmatic instances) arrive
    fresh with every task and are prepared every time; the compile caches
    make the repeat cheap.  A ``prepare`` that raises fails its task, which
    goes through the retry policy; only a prepared pair is cached.
    """
    if cache_key is not None:
        cached = _WORKER_ENGINES.get(cache_key)
        if cached is not None:
            # Evaluate against the *cached* scenario object: engine
            # memoisation is identity-based, so the freshly unpickled (but
            # equal) scenario would rebuild the simulator it came to reuse.
            return cached
    prepare = getattr(engine, "prepare", None)
    if prepare is not None:
        prepare(scenario)
    if cache_key is not None:
        if len(_WORKER_ENGINES) >= _WORKER_ENGINE_CACHE_LIMIT:
            _WORKER_ENGINES.clear()
        _WORKER_ENGINES[cache_key] = (engine, scenario)
    return engine, scenario


class _TaskError(Exception):
    """A pooled task's exception, carried back to the executor as its repr.

    Exceptions cross the process boundary pickled, and one whose class
    cannot be rebuilt from its ``args`` breaks the whole pool on the way
    back.  A repr always crosses, and ``repr`` of this error is the
    original's, so a pooled failure reads exactly like an inline one.
    """

    def __repr__(self) -> str:
        return str(self.args[0])


def _pool_evaluate(
    engine: Engine,
    scenario: Scenario,
    lambda_g: float,
    task_id: str,
    registry: WorkerRegistry,
    cache_key: Optional[WorkerKey],
) -> RunRecord:
    """Evaluate one task on a pool worker — every worker's core.

    ``registry`` is the pool's pid registry plus the execution token, and
    ``cache_key`` the worker-side engine cache key (``None`` for engine
    instances).  The worker tags its pid with the task, runs the fault hook,
    looks up (or prepares) the warm engine and evaluates.  It returns the
    record; anything ``prepare`` or the evaluation raises reaches the
    executor through the task's future as a :class:`_TaskError`.  (A
    *crash* kills the worker and breaks the pool instead — the executor's
    crash attribution charges the tagged culprit and re-queues the rest
    uncharged.)
    """
    _note_worker_task(registry, task_id)
    _maybe_inject_fault(task_id)
    try:
        engine, scenario = _worker_engine(engine, scenario, cache_key)
        return engine.evaluate(scenario, lambda_g)
    except Exception as error:  # noqa: BLE001 - the task's failure, sent back
        raise _TaskError(repr(error)) from error


# --------------------------------------------------------------------------- #
# The worker pool
# --------------------------------------------------------------------------- #
class WorkerPool:
    """The process pool campaign tasks run on, shared by any number of executions.

    A :class:`CampaignExecutor` without a ``pool`` starts its own for its
    pooled misses and shuts it down when its execution ends; the campaign
    service (:mod:`repro.service`) keeps one for its whole lifetime and
    runs every campaign it serves on it.  Either way:

    * **one task, one future** — :meth:`submit` hands the pool a single
      (engine, operating point) task, whose future resolves to its record
      or raises its failure.
    * **a broken pool is replaced in place** — a crashed or killed worker
      breaks the :class:`ProcessPoolExecutor`; :meth:`restart` retires it
      (generation-guarded, so executions sharing it retire it once) and the
      next submission starts a fresh one.  :attr:`restarts` counts those
      replacements.
    * **warm worker-side engines** — workers cache one prepared engine per
      (engine name, scenario) (:func:`_worker_engine`), so topology and
      route tables compile once per worker into its own compile caches, and
      the memoised simulator survives from task to task and campaign to
      campaign.  The submitting process prepares nothing.
    * **one pid registry for the pool's lifetime** — workers tag their pid
      with the submitting execution's token and the task id, so when a
      crash breaks the pool each execution on it can tell its own culprit
      from collateral damage (:func:`_crash_culprits`).

    ``start_method`` is the :mod:`multiprocessing` start method.  ``None``
    keeps the platform default (fork on Linux), whose workers start
    fastest.  The campaign service passes ``"spawn"``: it submits from
    executor threads while its event loop runs, and forking a multithreaded
    process can leave children deadlocked on inherited locks.  Spawned
    workers re-import the main module, so a script that submits to a
    spawned pool needs an ``if __name__ == "__main__":`` guard.

    Sharing has one caveat: a :class:`RetryPolicy` *timeout kill*
    (:meth:`kill_workers`) terminates every worker, which also breaks any
    other execution on the pool; those recover through their own retry
    rounds.  All public methods are thread-safe.  Also a context manager,
    whose exit is :meth:`shutdown`.
    """

    def __init__(
        self, max_workers: Optional[int] = None, *, start_method: Optional[str] = None
    ) -> None:
        self.max_workers = max(
            1, int(max_workers) if max_workers is not None else (os.cpu_count() or 1)
        )
        #: resolved here, so an unknown start method fails at construction
        self._context = multiprocessing.get_context(start_method)
        self.start_method = self._context.get_start_method()
        self._lock = threading.RLock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_generation = 0
        #: the pid registry every worker of every pool generation tags
        self._registry = tempfile.TemporaryDirectory(
            prefix="repro-pool-pids-", ignore_cleanup_errors=True
        )
        self.registry = self._registry.name
        self._closed = False
        #: tasks handed to workers (never incremented for store hits, which
        #: the executor serves before any submission — the "warm requests
        #: bypass workers" invariant is an assertion on this counter)
        self.tasks_dispatched = 0
        self.restarts = 0

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "WorkerPool":
        """Create the pool eagerly (otherwise the first submission does)."""
        self.pool_generation()
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ValidationError("worker pool is shut down")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=self._context
            )
            self._pool_generation += 1
        return self._pool

    def shutdown(self) -> None:
        """Stop the workers, once their running tasks end, and remove the
        pid registry."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        self._registry.cleanup()

    # ------------------------------------------------------------- execution
    def submit(
        self,
        engine: Engine,
        scenario: Scenario,
        lambda_g: float,
        task_id: str,
        execution: str,
        cache_key: Optional[WorkerKey],
    ) -> Future:
        """Hand one task to the pool; its future resolves to the task's record.

        ``execution`` is the submitting execution's token, which workers
        write into their pid tags.  ``cache_key`` is the worker-side engine
        cache key, ``None`` for an engine *instance* (which may carry
        programmatic state that must not be conflated across campaigns by
        name).  The future raises the task's failure as a
        :class:`_TaskError`, or ``BrokenProcessPool`` when a worker died.
        A pool that arrived broken is restarted once and the task
        resubmitted.
        """
        with self._lock:
            pool = self._ensure_pool()
            self.tasks_dispatched += 1
        args = (engine, scenario, lambda_g, task_id, (self.registry, execution), cache_key)
        try:
            return pool.submit(_pool_evaluate, *args)
        except (BrokenProcessPool, RuntimeError):
            # The pool broke under another execution between rounds; retire
            # it and resubmit on a fresh one (a second failure propagates).
            with self._lock:
                self._retire_pool(pool)
                pool = self._ensure_pool()
            return pool.submit(_pool_evaluate, *args)

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

    def restart(self, generation: int) -> None:
        """Retire the current pool if ``generation`` still names it.

        Executions sharing the pool all report the same broken pool; the
        generation guard makes sure it is only restarted once.  The
        replacement pool is created lazily by the next submission.
        """
        with self._lock:
            if self._pool is not None and generation == self._pool_generation:
                self._retire_pool(self._pool)

    # ------------------------------------------------------------ observation
    def worker_snapshot(self) -> Dict[int, Any]:
        """pid -> process handle for the current pool's workers."""
        with self._lock:
            if self._pool is None:
                return {}
            return dict(getattr(self._pool, "_processes", None) or {})

    def worker_pids(self) -> Tuple[int, ...]:
        return tuple(self.worker_snapshot())

    def kill_workers(self) -> None:
        """Terminate every worker (the executor's timeout reclaim path).

        This breaks the pool for *every* execution running on it; sharers
        recover through their retry rounds.
        """
        for process in self.worker_snapshot().values():
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead worker
                pass

    def stats(self) -> Dict[str, Any]:
        """A JSON-able health snapshot (the service's ``/health`` body).

        ``shared_memory_segments`` is always empty: the pool owns no shared
        memory.  The key stays so health checks that sweep for leaked
        segments keep working.
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


def _crash_culprits(
    workers: Dict[int, Any], registry: str, execution: str, unresolved: Set[str]
) -> Optional[Set[str]]:
    """Which unfinished tasks of ``execution`` took a broken pool down.

    ``workers`` is the round's pid -> process snapshot.  Workers tag their
    pid in the pool's ``registry`` with an execution token and a task id
    before running the task.  When one worker crashes the pool terminates
    the others, so a death by SIGTERM is collateral and names no culprit;
    any other death is a crash.  The dead pids tell three cases apart:

    * crashes tagged with this execution's unresolved tasks — those tasks
      are the culprits and are charged;
    * crashes tagged only by another execution sharing the pool, or, with
      no crash seen, SIGTERM deaths of which one carries another
      execution's tag (its timeout kill) — this round's tasks are
      collateral: the empty set re-queues them all uncharged;
    * anything else (no death observed, or no usable tag) — ``None``: the
      caller charges every unfinished task, which is what guarantees a
      deterministic crasher converges within ``max_attempts`` rounds.
    """
    # A broken pool means a worker died abruptly, but its death may not be
    # *observable* yet: the pool's manager thread reaps workers
    # concurrently, and a lost waitpid race reads as "still alive"
    # (multiprocessing treats ECHILD as not-yet-started).  Poll briefly
    # until a crash shows up rather than misattributing.
    deadline = time.monotonic() + 0.5
    while True:
        codes = {pid: process.exitcode for pid, process in workers.items()}
        dead = [pid for pid, code in codes.items() if code is not None]
        crashed = [pid for pid in dead if codes[pid] != -signal.SIGTERM]
        if crashed or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    culprits: Set[str] = set()
    foreign = False
    for pid in crashed or dead:
        tag = _read_worker_tag(registry, pid)
        if tag is None:
            continue
        if tag[0] != execution:
            foreign = True
        elif crashed:
            culprits.add(tag[1])
    culprits &= unresolved
    if culprits:
        return culprits
    return set() if foreign else None


# --------------------------------------------------------------------------- #
# Settling attempts
# --------------------------------------------------------------------------- #
#: The outcome of an attempt that costs its task nothing: an innocent
#: casualty of a timeout kill or of another task's crash, re-run uncharged.
_FREE = object()

#: What one round yields per finished attempt: the task and its outcome —
#: the record, the text of a failure charged to the task, or :data:`_FREE`.
Attempt = Tuple[CampaignTask, Any]


class _Ledger:
    """One execution's counters, and the one place an attempt becomes an event.

    Every attempt, inline or pooled, ends in one outcome (see
    :data:`Attempt`); :meth:`settle` turns it into the task's event, keeps
    the done/failed/retry counters the closing :class:`CampaignProgress`
    reports, and collects the tasks that run again in the next round.
    """

    def __init__(
        self,
        started: float,
        total: int,
        max_attempts: int,
        store: Optional[ResultStore],
    ) -> None:
        self.started = started
        self.total = total
        self.max_attempts = max_attempts
        self.store = store
        self.done = 0
        self.hits = 0
        self.failed = 0
        self.retries = 0
        self._attempts: Dict[CampaignTask, int] = {}
        self._requeue: List[CampaignTask] = []

    def _elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _completed(
        self, task: CampaignTask, record: RunRecord, from_cache: bool
    ) -> TaskCompleted:
        self.done += 1
        return TaskCompleted(
            task=task,
            record=record,
            from_cache=from_cache,
            done=self.done,
            total=self.total,
            elapsed_seconds=self._elapsed(),
        )

    def hit(self, task: CampaignTask, record: RunRecord) -> TaskCompleted:
        """A task served from the result store."""
        self.hits += 1
        return self._completed(task, record, from_cache=True)

    def settle(
        self, task: CampaignTask, outcome: Any, *, final: bool = False
    ) -> Optional[CampaignEvent]:
        """The event of one attempt's ``outcome``; ``None`` for a free re-run.

        A record completes the task and is written through to the store.  A
        failure text charges the task one attempt: it streams
        :class:`TaskRetried` and runs again while attempts remain, and
        :class:`TaskFailed` after — or at once when ``final``, for a failure
        every attempt would repeat.  :data:`_FREE` re-queues the task
        uncharged and silently.
        """
        if outcome is _FREE:
            self._requeue.append(task)
            return None
        if not isinstance(outcome, str):
            if self.store is not None and task.cache_key is not None:
                self.store.put(task.cache_key, outcome)
            return self._completed(task, outcome, from_cache=False)
        attempts = self._attempts[task] = self._attempts.get(task, 0) + 1
        if final or attempts >= self.max_attempts:
            self.done += 1
            self.failed += 1
            return TaskFailed(
                task=task,
                attempts=attempts,
                error=outcome,
                done=self.done,
                total=self.total,
                elapsed_seconds=self._elapsed(),
            )
        self.retries += 1
        self._requeue.append(task)
        return TaskRetried(
            task=task,
            attempt=attempts,
            max_attempts=self.max_attempts,
            error=outcome,
            elapsed_seconds=self._elapsed(),
        )

    def drain(
        self,
        tasks: Sequence[CampaignTask],
        run_round: Callable[[Sequence[CampaignTask]], Iterator[Attempt]],
    ) -> Iterator[CampaignEvent]:
        """Run ``tasks`` round after round until nothing is re-queued,
        settling every attempt ``run_round`` yields."""
        pending = list(tasks)
        while pending:
            for task, outcome in run_round(pending):
                event = self.settle(task, outcome)
                if event is not None:
                    yield event
            pending, self._requeue = self._requeue, []

    def progress(self) -> CampaignProgress:
        return CampaignProgress(
            self.done, self.total, self.hits, self._elapsed(), self.failed, self.retries
        )


# --------------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------------- #
def resolve_store(store: Union[ResultStore, None, str]) -> Optional[ResultStore]:
    """The store an executor or server backs its campaigns with.

    ``"default"`` opens ``REPRO_STORE`` / ``~/.cache/repro``, ``None``
    disables caching, and a :class:`~repro.store.ResultStore` is used as is.
    """
    if store == "default":
        return ResultStore()
    if store is None or isinstance(store, ResultStore):
        return store
    raise ValidationError("store must be a ResultStore, None, or the string 'default'")


class CampaignExecutor:
    """Flatten a campaign into one task queue and execute it, streaming results.

    Parameters
    ----------
    campaign:
        The plan to execute.  Engines are resolved eagerly, so invalid
        engine sets fail here rather than mid-stream.
    parallel:
        Fan expensive engines' cache misses out over one process pool shared
        by *all* scenarios of the campaign.  Every task is reproducible from
        the scenario's seed alone, so parallel and sequential executions are
        bit-identical — only wall-clock changes.
    max_workers:
        Pool size; defaults to the CPU count, capped by the number of pool
        tasks.
    store:
        The content-addressed result store backing the execution.  The
        default (``"default"``) resolves ``REPRO_STORE`` /
        ``~/.cache/repro``; pass a :class:`~repro.store.ResultStore` to pin
        a location or ``None`` to disable caching entirely (every task is
        computed fresh and nothing is written).
    retry:
        The :class:`RetryPolicy` applied to failing tasks.  The default
        (``None``) gives every task one attempt and no timeout; pass e.g.
        ``RetryPolicy(max_attempts=3, timeout_seconds=600)`` for unattended
        campaigns that must survive crashed or hung workers.
    pool:
        The :class:`WorkerPool` pooled tasks run on.  The default (``None``)
        starts a pool of ``min(max_workers, pooled tasks)`` workers for this
        execution's pooled misses and shuts it down when :meth:`execute`
        ends or its consumer closes it; no pool starts when every task is a
        cache hit, or for a lone untimed task, which runs in this process.
        Pass a shared pool (the campaign service's) to run on its warm
        workers instead; its lifecycle stays its owner's.
    """

    def __init__(
        self,
        campaign: Campaign,
        *,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        store: Union[ResultStore, None, str] = "default",
        retry: Optional[RetryPolicy] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.campaign = campaign
        self.parallel = parallel
        self.max_workers = max_workers
        self.retry = retry if retry is not None else NO_RETRY
        self.pool = pool
        self.store = resolve_store(store)
        self._labels = campaign.labels
        #: resolved engine instances, one tuple per entry (validates names,
        #: duplicates and emptiness up front)
        self._engines: Tuple[Tuple[Engine, ...], ...] = tuple(
            resolve_engines(entry.engines) for entry in campaign.entries
        )

    # -------------------------------------------------------------- task queue
    def tasks(self) -> Tuple[CampaignTask, ...]:
        """The flattened (scenario, engine, operating point) work queue.

        Cache keys are computed here, against the *current* kernel switch,
        so two executions under different switches address different
        records.
        """
        switches = kernel_switches() if self.store is not None else None
        queue: List[CampaignTask] = []
        for entry_index, entry in enumerate(self.campaign.entries):
            label = self._labels[entry_index]
            engines = self._engines[entry_index]
            for engine_index, engine in enumerate(engines):
                cacheable = self.store is not None and isinstance(
                    entry.engines[engine_index], str
                )
                for point_index, lambda_g in enumerate(entry.scenario.offered_traffic):
                    key = (
                        task_key(
                            entry.scenario, engine.name, lambda_g, switches=switches
                        )
                        if cacheable
                        else None
                    )
                    queue.append(
                        CampaignTask(
                            entry_index=entry_index,
                            label=label,
                            engine_index=engine_index,
                            engine=engine.name,
                            point_index=point_index,
                            lambda_g=float(lambda_g),
                            cache_key=key,
                        )
                    )
        return tuple(queue)

    # --------------------------------------------------------------- streaming
    def execute(self) -> Iterator[CampaignEvent]:
        """Execute the campaign, yielding events as tasks finish.

        The stream opens and closes with a :class:`CampaignProgress` event;
        in between, one :class:`TaskCompleted` (carrying the
        :class:`~repro.api.RunRecord`) is yielded per task, in completion
        order.  Records served from the result store are yielded first and
        marked ``from_cache=True``; they carry the wall-clock metadata of
        the run that originally produced them.

        Task failures never escape as exceptions mid-stream: a failed
        attempt with retries left streams :class:`TaskRetried` and the task
        runs again in the next round (crashed pools are rebuilt, hung
        workers are killed at the retry policy's timeout), and a task that
        exhausts its attempts streams a structured :class:`TaskFailed` so
        the rest of the campaign completes regardless.  Inline and pooled
        attempts alike are settled into their events by one
        :class:`_Ledger`.
        """
        started = time.perf_counter()
        tasks = self.tasks()
        ledger = _Ledger(started, len(tasks), self.retry.max_attempts, self.store)
        yield CampaignProgress(0, ledger.total, 0, 0.0)

        # Serve cache hits first: instant, and it means an interrupted
        # campaign streams everything it already knows before simulating.
        misses: List[CampaignTask] = []
        for task in tasks:
            record = (
                self.store.get(task.cache_key)
                if self.store is not None and task.cache_key is not None
                else None
            )
            if record is None:
                misses.append(task)
            else:
                yield ledger.hit(task, record)

        # Only a pool worker can be killed, so under a timeout every miss
        # goes to the pool (one worker unless parallel).
        timed = self.retry.timeout_seconds is not None
        inline: List[CampaignTask] = []
        pooled: List[CampaignTask] = []
        for task in misses:
            engine = self._engines[task.entry_index][task.engine_index]
            if timed or (self.parallel and getattr(engine, "expensive", True)):
                pooled.append(task)
            else:
                inline.append(task)
        if len(pooled) == 1 and not timed and self.pool is None:
            # A pool of one buys no parallelism and pays process start-up
            # plus engine pickling — evaluate the lone task in this process.
            # A shared pool keeps warm workers either way, so lone tasks
            # stay out of the serving process there.
            inline.extend(pooled)
            pooled = []
        yield from ledger.drain(inline, self._inline_round)

        # An engine that does not pickle can never reach a worker, so its
        # slot's tasks fail here after one attempt, unretried.  (Workers
        # prepare each engine themselves; a raising prepare fails its task
        # on the worker and goes through the retry policy.)  A slot that
        # pickles gets its worker-side engine cache key here, once; only
        # registry-named engines get one.
        keys: Dict[Tuple[int, int], Optional[WorkerKey]] = {}
        unpicklable: Dict[Tuple[int, int], str] = {}
        runnable: List[CampaignTask] = []
        for task in pooled:
            slot = (task.entry_index, task.engine_index)
            if slot not in keys and slot not in unpicklable:
                engine, scenario = self._slot(task)
                try:
                    pickle.dumps(engine)
                except (pickle.PicklingError, AttributeError, TypeError) as error:
                    unpicklable[slot] = repr(error)
                else:
                    named = isinstance(self.campaign.entries[slot[0]].engines[slot[1]], str)
                    keys[slot] = (
                        (engine.name, json.dumps(scenario.to_dict(), sort_keys=True))
                        if named
                        else None
                    )
            if slot in unpicklable:
                yield ledger.settle(task, unpicklable[slot], final=True)
            else:
                runnable.append(task)

        if runnable:
            own = self.pool is None
            pool = WorkerPool(min(self._workers(), len(runnable))) if own else self.pool
            # Workers tag their pid in the pool's registry with this token
            # and the task they run, which is what lets a broken pool charge
            # the actual culprits instead of every unfinished task — even
            # when another execution sharing the pool caused the break.
            execution = secrets.token_hex(8)
            finished = False
            try:
                yield from ledger.drain(
                    runnable,
                    lambda pending: self._pooled_round(pool, pending, execution, keys),
                )
                finished = True
            finally:
                if own:
                    # Our own pool never outlives the execution.  A consumer
                    # that abandons the stream gets its workers killed, not
                    # waited for: their results are unwanted, and a hung
                    # task would never return.
                    if not finished:
                        pool.kill_workers()
                    pool.shutdown()

        yield ledger.progress()

    def _slot(self, task: CampaignTask) -> Tuple[Engine, Scenario]:
        """The engine and scenario ``task`` evaluates."""
        return (
            self._engines[task.entry_index][task.engine_index],
            self.campaign.entries[task.entry_index].scenario,
        )

    def _workers(self) -> int:
        """The pool concurrency this execution asks for: one when it is not
        parallel (its timed tasks), else ``max_workers`` or the CPU count."""
        if not self.parallel:
            return 1
        if self.max_workers is not None:
            return max(1, self.max_workers)
        return os.cpu_count() or 1

    def _inline_round(self, pending: Sequence[CampaignTask]) -> Iterator[Attempt]:
        """Evaluate ``pending`` in this process, one attempt per task."""
        for task in pending:
            engine, scenario = self._slot(task)
            try:
                outcome = engine.evaluate(scenario, task.lambda_g)
            except Exception as error:  # noqa: BLE001 - charged to the task
                outcome = repr(error)
            yield task, outcome

    def _pooled_round(
        self,
        pool: WorkerPool,
        pending: Sequence[CampaignTask],
        execution: str,
        keys: Dict[Tuple[int, int], Optional[WorkerKey]],
    ) -> Iterator[Attempt]:
        """Run one round of ``pending`` on ``pool``, one future per task,
        yielding each attempt as its future resolves.

        A round is one pool generation: a crashed worker poisons its whole
        process pool, so a broken round restarts the pool — once per
        generation however many executions share it — and whatever the
        ledger re-queues runs in the next round on the fresh one.  Every
        failed attempt is decided here, in one place: a task whose timeout
        expired is charged; the other casualties of that timeout kill, and
        the innocent casualties of *another* task's worker crash, re-run
        free (:data:`_FREE`) — the culprit is known, from the kill itself
        or from the dead workers' pid tags, which may name a task of
        another execution sharing the pool; anything else is charged its
        error.  Only when crash attribution fails is every unfinished task
        of the round charged (see :func:`_crash_culprits`).
        """
        timeout = self.retry.timeout_seconds
        workers = min(self._workers(), len(pending), pool.max_workers)
        generation = pool.pool_generation()
        broken = False
        try:
            futures: Dict[Future, CampaignTask] = {}
            for task in pending:
                engine, scenario = self._slot(task)
                key = keys[(task.entry_index, task.engine_index)]
                future = pool.submit(
                    engine, scenario, task.lambda_g, task.task_id, execution, key
                )
                futures[future] = task
            snapshot = pool.worker_snapshot()
            outstanding: Set[Future] = set(futures)
            unresolved: Set[str] = {task.task_id for task in pending}
            crash_culprits: Any = _UNDETERMINED
            deadlines: Dict[Future, float] = {}
            #: the futures our timeout kill was for (empty: no kill yet)
            timed_out: Set[Future] = set()
            poll = min(0.25, max(0.01, timeout / 10)) if timeout is not None else None
            while outstanding:
                finished, outstanding = wait(
                    outstanding, timeout=poll, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    task = futures[future]
                    crashed = False
                    try:
                        outcome = future.result()
                    except (BrokenProcessPool, CancelledError):
                        broken = crashed = True
                        outcome = (
                            "worker crashed (process pool broke before the task "
                            "finished)"
                        )
                    except Exception as error:  # noqa: BLE001 - the task's failure
                        outcome = repr(error)
                    if not crashed:
                        unresolved.discard(task.task_id)
                    if isinstance(outcome, str):
                        if future in timed_out:
                            outcome = f"timed out after {timeout:g} s (worker killed)"
                        elif timed_out:
                            outcome = _FREE
                        elif crashed:
                            if crash_culprits is _UNDETERMINED:
                                crash_culprits = _crash_culprits(
                                    snapshot, pool.registry, execution, unresolved
                                )
                            if (
                                crash_culprits is not None
                                and task.task_id not in crash_culprits
                            ):
                                outcome = _FREE
                    yield task, outcome
                if timeout is not None and outstanding and not timed_out:
                    now = time.monotonic()
                    # The timeout clock starts when a worker picks the task
                    # up, not while it waits in the queue.  future.running()
                    # alone over-counts: the pool's call queue holds one
                    # task beyond the worker count and marks it running, so
                    # clamp the clock to the first `workers` unresolved
                    # futures in submission order — the executing set under
                    # the pool's FIFO feed.
                    executing = [
                        future for future in futures if future in outstanding
                    ][:workers]
                    for future in executing:
                        if future not in deadlines and future.running():
                            deadlines[future] = now + timeout
                    timed_out = {
                        future
                        for future in executing
                        if future in deadlines and now >= deadlines[future]
                    }
                    if timed_out:
                        broken = True
                        # A hung worker never returns; killing the pool's
                        # processes resolves every outstanding future as
                        # broken, and this round settles them.
                        pool.kill_workers()
        finally:
            if broken:
                pool.restart(generation)

    # ---------------------------------------------------------------- blocking
    def collect(
        self,
        *,
        strict: bool = True,
        on_event: Optional[Callable[[CampaignEvent], None]] = None,
    ) -> CampaignResult:
        """Drain :meth:`execute` and assemble one RunSet per campaign entry.

        Records are re-ordered engine-major, load-grid-minor inside each
        entry — exactly the :func:`repro.api.run` record order — regardless
        of the streaming completion order, so parallel and cached executions
        assemble identical RunSets.  ``on_event`` (when given) observes every
        streamed event, which is how the CLI renders live progress without
        re-implementing collection.

        ``strict`` decides what happens when tasks exhausted their retry
        budget: ``True`` (the default) raises a
        :class:`CampaignExecutionError` carrying every :class:`TaskFailed`;
        ``False`` returns *partial* RunSets — the failed tasks' records are
        simply absent, and the failures ride along as
        :attr:`CampaignResult.failures` so callers can tell a short series
        from a complete one.
        """
        records: Dict[Tuple[int, int, int], RunRecord] = {}
        failures: List[TaskFailed] = []
        hits = 0
        misses = 0
        retries = 0
        elapsed = 0.0
        for event in self.execute():
            if on_event is not None:
                on_event(event)
            if isinstance(event, TaskCompleted):
                task = event.task
                records[(task.entry_index, task.engine_index, task.point_index)] = (
                    event.record
                )
                if event.from_cache:
                    hits += 1
                else:
                    misses += 1
            elif isinstance(event, TaskFailed):
                failures.append(event)
            elif isinstance(event, TaskRetried):
                retries += 1
            else:
                elapsed = max(elapsed, event.elapsed_seconds)
        if failures and strict:
            raise CampaignExecutionError(failures)
        runsets = []
        for entry_index, entry in enumerate(self.campaign.entries):
            ordered = tuple(
                records[(entry_index, engine_index, point_index)]
                for engine_index in range(len(self._engines[entry_index]))
                for point_index in range(len(entry.scenario.offered_traffic))
                if (entry_index, engine_index, point_index) in records
            )
            runsets.append(RunSet(scenario=entry.scenario, records=ordered))
        return CampaignResult(
            campaign=self.campaign,
            labels=self._labels,
            runsets=tuple(runsets),
            cache_hits=hits,
            cache_misses=misses,
            elapsed_seconds=elapsed,
            failures=tuple(failures),
            task_retries=retries,
        )


def run_campaign(
    campaign: Campaign,
    *,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    store: Union[ResultStore, None, str] = "default",
    retry: Optional[RetryPolicy] = None,
    pool: Optional[WorkerPool] = None,
    strict: bool = True,
    on_event: Optional[Callable[[CampaignEvent], None]] = None,
) -> CampaignResult:
    """Execute ``campaign`` and block for the full :class:`CampaignResult`."""
    executor = CampaignExecutor(
        campaign,
        parallel=parallel,
        max_workers=max_workers,
        store=store,
        retry=retry,
        pool=pool,
    )
    return executor.collect(strict=strict, on_event=on_event)
