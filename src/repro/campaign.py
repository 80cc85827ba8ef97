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
  free, no per-scenario pool churn.  Where that pool lives is pluggable
  through :class:`WorkerBackend` — :class:`EphemeralPoolBackend` (the
  default) builds one pool per campaign, while the campaign service's
  :class:`~repro.service.daemon.PersistentPoolBackend` reuses a warm,
  long-lived daemon pool across campaigns.  Execution is *streaming* —
  :meth:`~CampaignExecutor.execute` yields a :class:`TaskCompleted` event
  (carrying the :class:`~repro.api.RunRecord`) per finished task plus
  :class:`CampaignProgress` events with done/total counts and elapsed time —
  and :meth:`~CampaignExecutor.collect` is the blocking wrapper that
  preserves ``run()``-style ergonomics, assembling one
  :class:`~repro.api.RunSet` per entry.
* a :class:`RetryPolicy` makes unattended campaigns survive their workers:
  a pooled task whose worker **crashes** (the pool breaks) or **hangs**
  (exceeds the per-task timeout; the worker is killed) is re-queued onto a
  fresh pool up to ``max_attempts`` times — each re-queue streams a
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
import shutil
import tempfile
import time
from concurrent.futures import (
    CancelledError,
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
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
    _evaluate_point,
    resolve_engines,
)
from repro.store import ResultStore, kernel_switches, task_key
from repro.utils.serialization import dump_json, load_json
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
    "EphemeralPoolBackend",
    "RetryPolicy",
    "TaskCompleted",
    "TaskFailed",
    "TaskRetried",
    "WorkerBackend",
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
        as statistics-budget overrides.
        """
        if not isinstance(data, dict) or "entries" not in data:
            raise ValidationError("a campaign plan must be an object with 'entries'")
        entries = []
        for item in data["entries"]:
            if not isinstance(item, dict) or "scenario" not in item:
                raise ValidationError("each campaign entry must be an object with 'scenario'")
            target = item["scenario"]
            budget = item.get("budget")
            seed = item.get("seed")
            if isinstance(target, str):
                scenario = api.scenario(
                    target,
                    points=int(item.get("points", 8)),
                    budget=budget if budget is not None else "quick",
                    seed=seed if seed is not None else 0,
                )
            elif isinstance(target, dict):
                scenario = Scenario.from_dict(target)
                if "points" in item:
                    scenario = scenario.with_points(int(item["points"]))
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
            entries.append(
                CampaignEntry(
                    scenario=scenario,
                    engines=tuple(item.get("engines", ("model", "sim"))),
                    label=str(item.get("label", "")),
                )
            )
        return cls(entries=tuple(entries), name=str(data.get("name", "")))

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
        ``None`` disables the timeout.  Inline tasks honour the timeout too:
        when one is set, each inline attempt runs in a disposable child
        process (the kill harness) so a hung evaluation can be reclaimed —
        without a timeout they run in the calling process as before.
    backoff_seconds:
        Sleep before re-queuing a failed task (grows by
        ``backoff_multiplier`` per prior attempt).  ``0`` retries
        immediately — the right default for crash recovery, where the
        failure is not load-dependent.
    backoff_multiplier:
        Exponential factor applied per additional attempt.
    """

    max_attempts: int = 3
    timeout_seconds: Optional[float] = None
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValidationError(
                f"timeout_seconds must be > 0 or None, got {self.timeout_seconds}"
            )
        if self.backoff_seconds < 0:
            raise ValidationError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.backoff_multiplier < 1:
            raise ValidationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )

    def delay_before(self, attempt: int) -> float:
        """Backoff before attempt number ``attempt`` (2-based: first retry)."""
        if attempt <= 1 or self.backoff_seconds == 0:
            return 0.0
        return self.backoff_seconds * self.backoff_multiplier ** (attempt - 2)


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
    #: attempts consumed (== the policy's max_attempts)
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


def _note_worker_task(registry_dir: Optional[str], task_id: str) -> None:
    """Tag this worker's pid with the task it is about to run.

    The executor reads these tags when a pool breaks: the dead pids name the
    tasks that actually took workers down, so innocent casualties of the
    shared crash re-queue without being charged an attempt.  Written before
    the fault hook so even an injected crash leaves its tag behind.
    """
    if registry_dir is None:
        return
    try:
        Path(registry_dir, str(os.getpid())).write_text(task_id, encoding="utf-8")
    except OSError:  # pragma: no cover - registry loss degrades to charge-all
        pass


def _pool_evaluate(
    engine: Engine,
    scenario: Scenario,
    lambda_g: float,
    task_id: str,
    registry_dir: Optional[str] = None,
) -> RunRecord:
    """Process-pool worker: evaluate one campaign task (fault hook included)."""
    _note_worker_task(registry_dir, task_id)
    _maybe_inject_fault(task_id)
    return _evaluate_point(engine, scenario, lambda_g)


#: One per-task outcome inside a chunk: ``("ok", record)`` or
#: ``("error", "<repr>")``.
ChunkOutcome = Tuple[str, Any]


def _pool_evaluate_chunk(
    engine: Engine,
    scenario: Scenario,
    items: Sequence[Tuple[float, str]],
    registry_dir: Optional[str] = None,
) -> List[ChunkOutcome]:
    """Process-pool worker: evaluate a chunk of tasks for one (engine, scenario).

    ``items`` is a sequence of ``(lambda_g, task_id)`` pairs.  Chunking
    amortises the per-submission IPC and engine/scenario pickling over many
    operating points — one pickled engine per chunk instead of per task —
    which is what keeps the cold 2-worker fan-out above 1x.

    An ordinary evaluation error is contained to its task: the chunk keeps
    going and reports per-task outcomes, so one bad operating point never
    costs its chunk-mates an attempt.  (A *crash* still kills the whole
    worker and with it the chunk — the executor's crash attribution charges
    the tagged culprit and re-queues the rest uncharged.)
    """
    outcomes: List[ChunkOutcome] = []
    for lambda_g, task_id in items:
        _note_worker_task(registry_dir, task_id)
        _maybe_inject_fault(task_id)
        try:
            record = _evaluate_point(engine, scenario, lambda_g)
        except Exception as error:  # noqa: BLE001 - contained per-task failure
            outcomes.append(("error", repr(error)))
        else:
            outcomes.append(("ok", record))
    return outcomes


class _HarnessFailure(RuntimeError):
    """An inline kill-harness failure carrying a pre-formatted reason string."""


def _inline_task_main(conn, engine, scenario, lambda_g, task_id) -> None:
    """Disposable-process entry for inline tasks running under a timeout."""
    try:
        record = _pool_evaluate(engine, scenario, lambda_g, task_id)
    except BaseException as error:  # noqa: BLE001 - marshalled to the parent
        try:
            conn.send(("error", repr(error)))
        except Exception:  # pragma: no cover - parent already gone
            pass
    else:
        conn.send(("ok", record))
    finally:
        conn.close()


# --------------------------------------------------------------------------- #
# Worker backends
# --------------------------------------------------------------------------- #
class WorkerBackend:
    """Where pooled campaign tasks execute.

    :class:`CampaignExecutor` is backend-agnostic: it drives rounds of
    submissions through this interface, so the same :class:`RetryPolicy`
    crash/timeout machinery applies whether the pool lives for one campaign
    (:class:`EphemeralPoolBackend`, the default) or persists across many
    (:class:`repro.service.daemon.PersistentPoolBackend`).

    Round protocol, driven once per pool round of one execution::

        begin_round(workers) -> effective concurrency
        submit(...) per task -> Future
        note_workers()                  # snapshot pids for crash forensics
        [dead_worker_pids() / kill_workers() as failures demand]
        end_round(broken=...)           # always runs, via finally

    ``close()`` releases whatever state outlives a round (nothing, for the
    ephemeral backend).
    """

    #: Persistent backends keep warm workers between campaigns; the executor
    #: then never demotes a lone pooled task to inline execution.
    persistent = False

    def prepare_entry(self, engine: Engine, scenario: Scenario) -> None:
        """Warm one (engine, scenario) pair before its tasks are submitted."""
        prepare = getattr(engine, "prepare", None)
        if prepare is not None:
            prepare(scenario)

    def begin_round(self, workers: int) -> int:
        """Make the pool ready for one round; returns the concurrency to
        assume when clamping the per-task timeout clock."""
        raise NotImplementedError

    def submit(
        self,
        engine: Engine,
        scenario: Scenario,
        lambda_g: float,
        task_id: str,
        registry_dir: Optional[str],
        *,
        named_engine: bool,
    ) -> Future:
        """Submit one task; ``named_engine`` marks registry engines, which a
        persistent backend may cache worker-side by (name, scenario)."""
        raise NotImplementedError

    def submit_chunk(
        self,
        engine: Engine,
        scenario: Scenario,
        items: Sequence[Tuple[float, str]],
        registry_dir: Optional[str],
        *,
        named_engine: bool,
    ) -> Future:
        """Submit a chunk of tasks sharing one (engine, scenario).

        ``items`` holds ``(lambda_g, task_id)`` pairs.  The future resolves
        to a list of :data:`ChunkOutcome` aligned with ``items`` — per-task
        ``("ok", record)`` / ``("error", repr)`` — so an evaluation error in
        one task never fails the whole chunk.  A chunk-level exception from
        the future means infrastructure died (broken pool, lost runner),
        not that a task mis-evaluated.
        """
        raise NotImplementedError

    def note_workers(self) -> None:
        """Snapshot the pool's worker pids (after the round's submissions)."""

    def dead_worker_pids(self) -> Tuple[int, ...]:
        """Pids from the last snapshot whose processes have died."""
        return ()

    def kill_workers(self) -> None:
        """Terminate every worker (the timeout reclaim path)."""

    def end_round(self, *, broken: bool) -> None:
        """Finish the round; ``broken`` reports a poisoned pool."""

    def close(self) -> None:
        """Release any cross-round state."""


class EphemeralPoolBackend(WorkerBackend):
    """One fresh :class:`ProcessPoolExecutor` per round — the classic mode.

    A crashed worker poisons its whole pool, so recovery is simply a new
    pool over whatever the old one left unfinished; nothing survives the
    round, and fork-started workers inherit the caches
    :meth:`~WorkerBackend.prepare_entry` warmed in this process.
    """

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers: Dict[int, Any] = {}

    def begin_round(self, workers: int) -> int:
        self._pool = ProcessPoolExecutor(max_workers=workers)
        self._workers = {}
        return workers

    def submit(
        self,
        engine: Engine,
        scenario: Scenario,
        lambda_g: float,
        task_id: str,
        registry_dir: Optional[str],
        *,
        named_engine: bool,
    ) -> Future:
        return self._pool.submit(
            _pool_evaluate, engine, scenario, lambda_g, task_id, registry_dir
        )

    def submit_chunk(
        self,
        engine: Engine,
        scenario: Scenario,
        items: Sequence[Tuple[float, str]],
        registry_dir: Optional[str],
        *,
        named_engine: bool,
    ) -> Future:
        return self._pool.submit(
            _pool_evaluate_chunk, engine, scenario, tuple(items), registry_dir
        )

    def note_workers(self) -> None:
        self._workers = dict(getattr(self._pool, "_processes", None) or {})

    def dead_worker_pids(self) -> Tuple[int, ...]:
        return tuple(
            pid for pid, process in self._workers.items() if not process.is_alive()
        )

    def kill_workers(self) -> None:
        processes = getattr(self._pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead worker
                pass

    def end_round(self, *, broken: bool) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._workers = {}


# --------------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------------- #
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
    backend:
        The :class:`WorkerBackend` pooled tasks execute on.  The default
        (``None``) builds a fresh :class:`EphemeralPoolBackend` — one
        process pool per campaign, the pre-service behaviour.  Pass a
        :class:`repro.service.daemon.PersistentPoolBackend` to run on a
        warm, long-lived worker daemon shared across campaigns.
    """

    def __init__(
        self,
        campaign: Campaign,
        *,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        store: Union[ResultStore, None, str] = "default",
        retry: Optional[RetryPolicy] = None,
        backend: Optional[WorkerBackend] = None,
    ) -> None:
        self.campaign = campaign
        self.parallel = parallel
        self.max_workers = max_workers
        self.retry = retry if retry is not None else NO_RETRY
        self.backend = backend if backend is not None else EphemeralPoolBackend()
        if store == "default":
            self.store: Optional[ResultStore] = ResultStore()
        elif store is None:
            self.store = None
        elif isinstance(store, ResultStore):
            self.store = store
        else:
            raise ValidationError(
                "store must be a ResultStore, None, or the string 'default'"
            )
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
        is re-queued (crashed pools are rebuilt, hung workers are killed at
        the retry policy's timeout), and a task that exhausts its attempts
        streams a structured :class:`TaskFailed` so the rest of the campaign
        completes regardless.
        """
        started = time.perf_counter()
        policy = self.retry
        tasks = self.tasks()
        total = len(tasks)
        done = 0
        hits = 0
        failed = 0
        retries = 0
        yield CampaignProgress(0, total, 0, 0.0)

        def _failure_event(
            task: CampaignTask, attempts_used: int, reason: str
        ) -> Union[TaskFailed, TaskRetried]:
            """Book a failed attempt: terminal TaskFailed or a TaskRetried."""
            nonlocal done, failed, retries
            if attempts_used >= policy.max_attempts:
                done += 1
                failed += 1
                return TaskFailed(
                    task=task,
                    attempts=attempts_used,
                    error=reason,
                    done=done,
                    total=total,
                    elapsed_seconds=time.perf_counter() - started,
                )
            retries += 1
            return TaskRetried(
                task=task,
                attempt=attempts_used,
                max_attempts=policy.max_attempts,
                error=reason,
                elapsed_seconds=time.perf_counter() - started,
            )

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
                continue
            done += 1
            hits += 1
            yield TaskCompleted(
                task=task,
                record=record,
                from_cache=True,
                done=done,
                total=total,
                elapsed_seconds=time.perf_counter() - started,
            )

        inline: List[CampaignTask] = []
        pooled: List[CampaignTask] = []
        for task in misses:
            engine = self._engines[task.entry_index][task.engine_index]
            if self.parallel and getattr(engine, "expensive", True):
                pooled.append(task)
            else:
                inline.append(task)
        if len(pooled) == 1 and not self.backend.persistent:
            # A pool of one buys no parallelism and pays process spawn plus
            # engine pickling — evaluate the lone task in this process.  A
            # persistent backend keeps warm workers either way, so lone
            # tasks stay out of the serving process there.
            inline.extend(pooled)
            pooled = []

        for task in inline:
            attempt = 0
            while True:
                attempt += 1
                try:
                    record = self._evaluate_inline(task)
                except Exception as error:  # noqa: BLE001 - structured failure path
                    reason = (
                        str(error)
                        if isinstance(error, _HarnessFailure)
                        else repr(error)
                    )
                    event = _failure_event(task, attempt, reason)
                    yield event
                    if isinstance(event, TaskFailed):
                        break
                    delay = policy.delay_before(attempt + 1)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                yield self._complete(task, record, started, done, total)
                done += 1
                break

        if pooled:
            # Compile every pooled entry's network core before the workers
            # see it.  The ephemeral backend prepares in this process —
            # fork-started workers inherit the module-level caches,
            # spawn-started workers compile once per process, not per point
            # — and the persistent backend additionally exports the compiled
            # tables to shared memory so daemon workers map instead of
            # rebuild.
            prepared = set()
            for task in pooled:
                slot = (task.entry_index, task.engine_index)
                if slot in prepared:
                    continue
                prepared.add(slot)
                engine = self._engines[task.entry_index][task.engine_index]
                self.backend.prepare_entry(
                    engine, self.campaign.entries[task.entry_index].scenario
                )

            # Per-execution worker-pid registry: workers tag their pid with
            # the task they run, which is what lets a broken pool charge the
            # actual culprits instead of every unfinished task.
            registry_dir = tempfile.mkdtemp(prefix="repro-campaign-pids-")
            attempts: Dict[CampaignTask, int] = {task: 0 for task in pooled}
            pending: List[CampaignTask] = list(pooled)
            try:
                while pending:
                    # One "round" per pool: a crashed worker poisons its
                    # whole process pool, so recovery means a fresh (or
                    # restarted) pool over everything the previous one left
                    # unfinished.
                    requeue: List[CampaignTask] = []
                    for event in self._pooled_round(
                        pending, attempts, requeue, _failure_event, started,
                        lambda: done, total, registry_dir,
                    ):
                        if isinstance(event, TaskCompleted):
                            done += 1
                        yield event
                    pending = requeue
                    if pending:
                        delay = max(
                            policy.delay_before(attempts[task] + 1)
                            for task in pending
                        )
                        if delay > 0:
                            time.sleep(delay)
            finally:
                shutil.rmtree(registry_dir, ignore_errors=True)

        yield CampaignProgress(
            done, total, hits, time.perf_counter() - started, failed, retries
        )

    def _pooled_round(
        self,
        pending: Sequence[CampaignTask],
        attempts: Dict[CampaignTask, int],
        requeue: List[CampaignTask],
        _failure_event: Callable[[CampaignTask, int, str], Union[TaskFailed, TaskRetried]],
        started: float,
        current_done: Callable[[], int],
        total: int,
        registry_dir: Optional[str] = None,
    ) -> Iterator[CampaignEvent]:
        """Run one backend round over ``pending``, streaming its events.

        Tasks that must run again land in ``requeue``: failed attempts with
        retries left (attempt counted), plus innocent casualties of a
        timeout kill or of *another* task's worker crash (attempt *not*
        counted — the culprit is known, from the kill itself or from the
        dead workers' pid tags).  Only when crash attribution fails — no
        dead pid observed, or no dead worker had tagged an unfinished task —
        is every unfinished task of the round charged an attempt, the
        fallback that makes a deterministic crasher converge in
        ``max_attempts`` rounds.
        """
        policy = self.retry
        backend = self.backend
        requested = (
            self.max_workers if self.max_workers is not None else (os.cpu_count() or 1)
        )
        workers = backend.begin_round(max(1, min(requested, len(pending))))
        # Chunked submission amortises per-task IPC/pickling: ~4 chunks per
        # worker keeps the pool load-balanced while an uneven task mix
        # drains.  The per-task timeout clock is per *future*, so any
        # timeout policy forces chunks of one — coarser chunks would let a
        # hung point hide behind its chunk-mates' budget.
        chunk_size = (
            1
            if policy.timeout_seconds is not None
            else max(1, len(pending) // (workers * 4))
        )
        broken = False
        try:
            futures: Dict[Future, Tuple[CampaignTask, ...]] = {}
            # Group by (entry, engine) so every chunk shares one pickled
            # engine + scenario, preserving submission order within a group.
            groups: Dict[Tuple[int, int], List[CampaignTask]] = {}
            for task in pending:
                groups.setdefault(
                    (task.entry_index, task.engine_index), []
                ).append(task)
            for (entry_index, engine_index), group in groups.items():
                entry = self.campaign.entries[entry_index]
                engine = self._engines[entry_index][engine_index]
                named = isinstance(entry.engines[engine_index], str)
                for start in range(0, len(group), chunk_size):
                    chunk = tuple(group[start : start + chunk_size])
                    futures[
                        backend.submit_chunk(
                            engine,
                            entry.scenario,
                            tuple((task.lambda_g, task.task_id) for task in chunk),
                            registry_dir,
                            named_engine=named,
                        )
                    ] = chunk
            backend.note_workers()
            outstanding: Set[Future] = set(futures)
            unresolved: Set[str] = {task.task_id for task in pending}
            crash_culprits: Any = _UNDETERMINED
            #: submission order; the executor feeds workers FIFO, so the
            #: first `workers` unresolved futures are the ones actually
            #: executing (a queued future reports running() the moment it
            #: enters the call queue, which must not start its clock)
            order: List[Future] = list(futures)
            deadlines: Dict[Future, float] = {}
            timed_out: Set[CampaignTask] = set()
            killed_for_timeout = False
            poll = (
                min(0.25, max(0.01, policy.timeout_seconds / 10))
                if policy.timeout_seconds is not None
                else None
            )
            while outstanding:
                finished, outstanding = wait(
                    outstanding, timeout=poll, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    chunk = futures[future]
                    try:
                        outcomes = future.result()
                    except (BrokenProcessPool, CancelledError):
                        broken = True
                        for task in chunk:
                            if task in timed_out:
                                attempts[task] += 1
                                event = _failure_event(
                                    task,
                                    attempts[task],
                                    f"timed out after {policy.timeout_seconds:g} s "
                                    "(worker killed)",
                                )
                            elif killed_for_timeout:
                                # Innocent casualty of our own timeout kill:
                                # the culprit is known, so re-queue without
                                # charging an attempt (and without noise in
                                # the stream).
                                requeue.append(task)
                                continue
                            else:
                                if crash_culprits is _UNDETERMINED:
                                    crash_culprits = self._crash_culprits(
                                        registry_dir, unresolved
                                    )
                                if (
                                    crash_culprits is not None
                                    and task.task_id not in crash_culprits
                                ):
                                    # Collateral casualty of another task's
                                    # crash: the dead workers' pid tags name
                                    # the culprits, so re-queue without
                                    # charging an attempt.
                                    requeue.append(task)
                                    continue
                                attempts[task] += 1
                                event = _failure_event(
                                    task,
                                    attempts[task],
                                    "worker crashed (process pool broke before "
                                    "the task finished)",
                                )
                            yield event
                            if isinstance(event, TaskRetried):
                                requeue.append(task)
                    except Exception as error:  # noqa: BLE001 - infrastructure failure
                        # A chunk-level exception means the chunk's substrate
                        # died (a lost runner, a failed submission) — per-task
                        # evaluation errors come back as outcomes below.
                        # Every task of the chunk is charged one attempt;
                        # tasks our own timeout kill reclaimed keep the
                        # timeout label, and its innocent casualties re-queue
                        # uncharged exactly as on the broken-pool path.
                        for task in chunk:
                            unresolved.discard(task.task_id)
                            if task in timed_out:
                                attempts[task] += 1
                                event = _failure_event(
                                    task,
                                    attempts[task],
                                    f"timed out after {policy.timeout_seconds:g} s "
                                    "(worker killed)",
                                )
                            elif killed_for_timeout:
                                requeue.append(task)
                                continue
                            else:
                                attempts[task] += 1
                                event = _failure_event(
                                    task, attempts[task], repr(error)
                                )
                            yield event
                            if isinstance(event, TaskRetried):
                                requeue.append(task)
                    else:
                        for task, (status, payload) in zip(chunk, outcomes):
                            unresolved.discard(task.task_id)
                            if status == "ok":
                                yield TaskCompleted(
                                    task=task,
                                    record=self._persist(task, payload),
                                    from_cache=False,
                                    done=current_done() + 1,
                                    total=total,
                                    elapsed_seconds=time.perf_counter() - started,
                                )
                            else:
                                attempts[task] += 1
                                event = _failure_event(
                                    task, attempts[task], str(payload)
                                )
                                yield event
                                if isinstance(event, TaskRetried):
                                    requeue.append(task)
                if policy.timeout_seconds is not None and outstanding:
                    now = time.monotonic()
                    # The timeout clock starts when a worker picks the task
                    # up, not while it waits in the queue.  future.running()
                    # alone over-counts: the pool's call queue holds one
                    # task beyond the worker count and marks it running, so
                    # clamp the clock to the first `workers` unresolved
                    # futures in submission order — the executing set under
                    # the pool's FIFO feed.
                    executing = [
                        future for future in order if future in outstanding
                    ][:workers]
                    for future in executing:
                        if future not in deadlines and future.running():
                            deadlines[future] = now + policy.timeout_seconds
                    expired = [
                        future
                        for future in executing
                        if future in deadlines and now >= deadlines[future]
                    ]
                    if expired and not killed_for_timeout:
                        for future in expired:
                            # Chunks are size 1 whenever a timeout policy is
                            # active, so an expired future names exactly one
                            # hung task.
                            timed_out.update(futures[future])
                        killed_for_timeout = True
                        broken = True
                        # A hung worker never returns; killing the pool's
                        # processes resolves every outstanding future as
                        # broken, and the round's cleanup re-queues them.
                        backend.kill_workers()
        finally:
            backend.end_round(broken=broken)

    def _crash_culprits(
        self, registry_dir: Optional[str], unresolved: Set[str]
    ) -> Optional[Set[str]]:
        """Which unfinished tasks were running on the workers that died.

        Workers tag a per-pid registry file with their task id before
        picking it up, so when the pool breaks the dead pids name the tasks
        that actually took workers down.  Returns ``None`` when attribution
        is impossible (no dead pid observed, or no dead worker had tagged a
        still-unfinished task) — the caller then falls back to charging
        every unfinished task, which is what guarantees a deterministic
        crasher converges within ``max_attempts`` rounds.
        """
        if registry_dir is None:
            return None
        # A broken pool means a worker died abruptly, but its death may not
        # be *observable* yet: the pool's manager thread reaps workers
        # concurrently, and a lost waitpid race reads as "still alive"
        # (multiprocessing treats ECHILD as not-yet-started).  Poll briefly
        # until at least one death shows up rather than misattributing.
        deadline = time.monotonic() + 0.5
        dead = self.backend.dead_worker_pids()
        while not dead and time.monotonic() < deadline:
            time.sleep(0.02)
            dead = self.backend.dead_worker_pids()
        culprits: Set[str] = set()
        for pid in dead:
            try:
                tag = Path(registry_dir, str(pid)).read_text(encoding="utf-8")
            except OSError:
                continue  # died before tagging any task: attributes nothing
            culprits.add(tag)
        culprits &= unresolved
        return culprits or None

    def _evaluate(self, task: CampaignTask) -> RunRecord:
        engine = self._engines[task.entry_index][task.engine_index]
        scenario = self.campaign.entries[task.entry_index].scenario
        return engine.evaluate(scenario, task.lambda_g)

    def _evaluate_inline(self, task: CampaignTask) -> RunRecord:
        """One inline attempt, under the policy timeout when one is set.

        Without a timeout the task runs in this process — cheap engines,
        zero overhead, memoised models reused.  With one, each attempt runs
        in a disposable child process (the inline kill harness) so a hung
        evaluation can actually be reclaimed, extending the pooled path's
        timeout guarantee to inline tasks at the cost of a process spawn
        per attempt.
        """
        timeout = self.retry.timeout_seconds
        if timeout is None:
            return self._evaluate(task)
        engine = self._engines[task.entry_index][task.engine_index]
        scenario = self.campaign.entries[task.entry_index].scenario
        context = multiprocessing.get_context()
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_inline_task_main,
            args=(sender, engine, scenario, task.lambda_g, task.task_id),
            daemon=True,
        )
        process.start()
        sender.close()
        try:
            if not receiver.poll(timeout):
                raise _HarnessFailure(
                    f"timed out after {timeout:g} s (inline worker killed)"
                )
            try:
                status, payload = receiver.recv()
            except EOFError:
                raise _HarnessFailure(
                    "worker crashed (inline harness process died before the "
                    "task finished)"
                ) from None
            if status == "ok":
                return payload
            raise _HarnessFailure(payload)
        finally:
            if process.is_alive():
                process.terminate()
            process.join()
            receiver.close()

    def _persist(self, task: CampaignTask, record: RunRecord) -> RunRecord:
        """Write a freshly computed record through to the store."""
        if self.store is not None and task.cache_key is not None:
            self.store.put(task.cache_key, record)
        return record

    def _complete(
        self,
        task: CampaignTask,
        record: RunRecord,
        started: float,
        done: int,
        total: int,
    ) -> TaskCompleted:
        """Persist a freshly computed record and wrap it as an event."""
        return TaskCompleted(
            task=task,
            record=self._persist(task, record),
            from_cache=False,
            done=done + 1,
            total=total,
            elapsed_seconds=time.perf_counter() - started,
        )

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
    backend: Optional[WorkerBackend] = None,
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
        backend=backend,
    )
    return executor.collect(strict=strict, on_event=on_event)
