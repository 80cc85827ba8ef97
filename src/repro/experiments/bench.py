"""Machine-readable simulator benchmark (the ``BENCH_simulator.json`` artifact).

The ROADMAP's north star is a simulator that runs "as fast as the hardware
allows"; that is only a meaningful claim if every PR measures it the same
way.  This module defines that measurement: a small **fixed scenario set**
(the paper's two Table 1 organisations plus the heterogeneous integration
system) run sequentially through :class:`repro.api.SimulationEngine` at a
fixed budget and seed, reporting wall-clock seconds and delivered
messages/second per scenario.

``repro-multicluster bench`` runs it and writes ``BENCH_simulator.json``;
passing ``--baseline`` (typically the artifact committed by an earlier PR)
adds per-scenario speedup ratios, and ``--parallel`` additionally executes
the whole scenario set as **one campaign over one shared process pool** at a
ladder of worker counts, recording a speedup-vs-workers curve.  The JSON
schema is intentionally tiny and stable so the perf trajectory stays
machine-readable across PRs::

    {
      "schema": 1,
      "budget": "quick", "points": 3, "seed": 0,
      "scenarios": {"fig3": {"wall_clock_seconds": ..,
                             "messages_per_second": ..,
                             "events_per_second": ..,
                             "kernel": "vectorized",
                             "setup_seconds": ..,     # compile + streams
                             "run_seconds": ..,       # event-loop execute
                             "collect_seconds": ..,   # state + statistics
                             ...}, ...},
      "kernels": [{"scenario": "fig3", "kernel": "generator",
                   "wall_clock_seconds": .., "messages_per_second": ..,
                   "events_per_second": .., "speedup": 1.0},
                  {"scenario": "fig3", "kernel": "vectorized",
                   "speedup": 4.1, ...}, ...],
      "scaling": [{"workers": 1, "mode": "cold", "kernel": "vectorized",
                   "elapsed_seconds": ..,
                   "messages_per_second": .., "speedup": 1.0,
                   "retries": 0},
                  ...,
                  {"workers": 2, "mode": "daemon", "speedup": ..,
                   "speedup_vs_sequential": ..,
                   "warmup_seconds": .., ...}],                # --parallel
      "task_retries": 0,                                 # --parallel
      "baseline": {"label": .., "scenarios": {...}},   # when compared
      "speedup": {"fig3": 2.2, ...}                    # when compared
    }

The ``kernels`` rungs are the matched-budget comparison between the
generator kernel (the executable specification) and the vectorized core:
same scenario, same :class:`~repro.sim.config.SimulationConfig`, same seed,
interleaved repetitions with the minimum wall clock reported per kernel —
the measurement ``benchmarks/diff_bench.py`` gates on.

The per-scenario entries are always measured sequentially (one engine, one
process), so the ``messages_per_second`` trajectory stays comparable across
PRs and machines regardless of ``--parallel``; the ``scaling`` section is
where multi-core fan-out is recorded.  Its ``"cold"`` rungs measure a fresh
campaign process (compile caches cleared, the executor's own pool); the
``"daemon"`` rung measures the same campaign against a warm, shared
:class:`repro.campaign.WorkerPool` started the way ``repro-multicluster
serve`` starts its pool — what a request to an already-running server
costs once its workers are warm and hold their own compiled route tables.
Cold rungs report ``speedup`` against the sequential (1-worker cold)
baseline; the daemon rung reports ``speedup`` against the cold rung at the *same*
worker count — warm service vs fresh campaign process is the comparison
the rung exists to measure — and carries the sequential ratio separately
as ``speedup_vs_sequential``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List

from repro import api
from repro.utils.serialization import dump_json, load_json
from repro.utils.validation import ValidationError

__all__ = [
    "BENCH_SCENARIOS",
    "BENCH_KERNELS",
    "bench_campaign",
    "run_bench",
    "attach_baseline",
    "write_bench",
]

#: The fixed scenario set every PR benchmarks (order is report order).
BENCH_SCENARIOS = ("fig3", "fig4", "heterogeneous")

#: Default operating-point count per scenario.
BENCH_POINTS = 3

#: The kernel-comparison rung pair: the generator kernel (executable
#: specification) first — it is the rung the speedups are relative to.
BENCH_KERNELS = ("generator", "vectorized")

#: Interleaved repetitions per kernel rung; the minimum wall clock is
#: reported, which drops scheduler/thermal noise without inventing speed.
KERNEL_BENCH_REPS = 5


def _resolved_kernel() -> str:
    """The kernel the engine-backed measurements actually run."""
    from repro.sim.simulator import DEFAULT_KERNEL

    return os.environ.get("REPRO_SIM_KERNEL", DEFAULT_KERNEL)


def bench_campaign(
    scenarios: Iterable[str] = BENCH_SCENARIOS, *, points: int = BENCH_POINTS, sim=None
) -> "Campaign":
    """The benchmark scenario set as one simulation-only campaign."""
    from repro.campaign import Campaign, CampaignEntry

    sim = sim if sim is not None else api.simulation_budget("quick", 0)
    return Campaign(
        entries=tuple(
            CampaignEntry(
                scenario=api.scenario(name, points=points, sim=sim),
                engines=("sim",),
                label=name,
            )
            for name in scenarios
        ),
        name="bench",
    )


def _worker_ladder(effective_workers: int) -> List[int]:
    """1, 2, 4, … up to (and always including) ``effective_workers``."""
    ladder = [1]
    width = 2
    while width < effective_workers:
        ladder.append(width)
        width *= 2
    if effective_workers > 1:
        ladder.append(effective_workers)
    return ladder


def _clear_compiled_state() -> None:
    """Return this process to a cold start: compiled caches, warmed streams."""
    from repro.routing.compile import clear_route_caches
    from repro.topology.compile import clear_compile_caches
    from repro.utils.rng import clear_stream_pool

    clear_compile_caches()
    clear_route_caches()
    clear_stream_pool()


def _run_rung(
    campaign: "Campaign", *, parallel: bool, workers: int, pool: Any = None
) -> tuple:
    """One timed campaign execution; returns (elapsed, messages, retries)."""
    from repro.campaign import CampaignExecutor, RetryPolicy

    executor = CampaignExecutor(
        campaign,
        parallel=parallel,
        max_workers=workers,
        store=None,
        retry=RetryPolicy(max_attempts=2),
        pool=pool,
    )
    started = time.perf_counter()
    result = executor.collect()
    elapsed = time.perf_counter() - started
    measured = sum(
        record.simulation.measured_messages
        for runset in result.runsets
        for record in runset.records
        if record.simulation is not None
    )
    return elapsed, measured, result.task_retries


def _measure_scaling(
    campaign: "Campaign", effective_workers: int
) -> List[Dict[str, Any]]:
    """Elapsed/messages-per-second of the shared-pool campaign per rung.

    Two rung modes, distinguished by the ``mode`` field:

    * ``"cold"`` — what a fresh ``repro-multicluster campaign run`` pays.
      The compile caches and stream pool are cleared before each rung, so
      the measurement includes route-table compilation and (for pooled
      rungs) the start-up of the executor's own pool.  The ``workers=1``
      cold rung executes sequentially in-process and is the curve's
      speedup baseline.
    * ``"daemon"`` — the same campaign served by a *warm*, shared
      :class:`repro.campaign.WorkerPool` at the top worker count, spawned
      as the server spawns its own: one untimed warm-up campaign starts
      the workers, which compile their tables and warm their engines, then
      the timed run measures what a request to an already-running
      ``repro-multicluster serve`` costs.  The warm-up cost itself is
      recorded as ``warmup_seconds``.  Its ``speedup`` is against
      the cold rung at the same worker count (warm service vs fresh
      campaign process); ``speedup_vs_sequential`` keeps the ratio against
      the 1-worker baseline that the cold rungs report.

    Results are bit-identical across every rung (each point is reproducible
    from the scenario seed alone); only the elapsed time changes.

    All pooled rungs run under the campaign retry policy (one re-queue per
    task), so a transient worker death cannot sink a benchmark run; each
    rung records how many retries it needed (0 on healthy hardware — a
    non-zero count flags that the elapsed time includes recovery work).
    """
    from repro.campaign import WorkerPool

    def rung_entry(mode: str, workers: int, elapsed: float, measured: int, retries: int):
        # Speedups are ratios of the *recorded* (rounded) elapsed times, so
        # a reader recomputing them from the payload gets the same numbers.
        recorded = round(elapsed, 4)
        return {
            "workers": int(workers),
            "mode": mode,
            "kernel": _resolved_kernel(),
            "elapsed_seconds": recorded,
            "measured_messages": int(measured),
            "messages_per_second": round(measured / elapsed, 1),
            "speedup": round(curve[0]["elapsed_seconds"] / recorded, 2) if curve else 1.0,
            "retries": int(retries),
        }

    curve: List[Dict[str, Any]] = []
    for workers in _worker_ladder(effective_workers):
        _clear_compiled_state()
        elapsed, measured, retries = _run_rung(
            campaign, parallel=workers > 1, workers=workers
        )
        curve.append(rung_entry("cold", workers, elapsed, measured, retries))
    _clear_compiled_state()
    with WorkerPool(effective_workers, start_method="spawn") as pool:
        warmup_started = time.perf_counter()
        _run_rung(campaign, parallel=True, workers=effective_workers, pool=pool)
        warmup_seconds = time.perf_counter() - warmup_started
        elapsed, measured, retries = _run_rung(
            campaign, parallel=True, workers=effective_workers, pool=pool
        )
    entry = rung_entry("daemon", effective_workers, elapsed, measured, retries)
    # The daemon rung answers "same campaign, same worker count: what does
    # the warm service save over a fresh campaign process?", so its headline
    # speedup is against the cold rung at the same width; the sequential
    # ratio every cold rung reports is kept alongside.
    same_width = next(
        rung for rung in curve
        if rung["workers"] == effective_workers and rung["mode"] == "cold"
    )
    entry["speedup_vs_sequential"] = entry["speedup"]
    entry["speedup"] = round(same_width["elapsed_seconds"] / entry["elapsed_seconds"], 2)
    entry["warmup_seconds"] = round(warmup_seconds, 4)
    curve.append(entry)
    return curve


def _measure_kernels(
    scenarios: Iterable[str],
    *,
    points: int,
    sim,
    reps: int = KERNEL_BENCH_REPS,
) -> List[Dict[str, Any]]:
    """Matched-budget kernel rungs: the generator spec vs the vectorized core.

    Each scenario is run at its lowest grid operating point (the unsaturated
    regime, where the event loop — not the guard timeout — is what is being
    timed) under both kernels, with the *same* budget, seed and offered
    traffic.  Repetitions interleave the kernels so both see the same
    machine conditions, and each rung reports its minimum wall clock: on a
    noisy box the minimum is the least-contended observation of the same
    deterministic computation.  The first warm run per kernel (compile
    caches, stream pools, allocator) is untimed.

    Results are bit-identical between the rung pair by the golden-seed
    gate, so the ratio isolates kernel mechanics.
    """
    from repro.sim.simulator import MultiClusterSimulator

    rungs: List[Dict[str, Any]] = []
    for name in scenarios:
        scenario = api.scenario(name, points=points, sim=sim)
        lambda_g = float(scenario.offered_traffic[0])
        simulators = {}
        for kernel in BENCH_KERNELS:
            simulator = MultiClusterSimulator(
                scenario.network,
                scenario.message,
                scenario.timing,
                config=scenario.sim,
                pattern=scenario.pattern.build(),
                kernel=kernel,
            )
            simulator.run(lambda_g)  # warm-up, untimed
            simulators[kernel] = simulator
        walls: Dict[str, List[float]] = {kernel: [] for kernel in BENCH_KERNELS}
        results: Dict[str, Any] = {}
        for _ in range(max(1, reps)):
            for kernel, simulator in simulators.items():
                result = simulator.run(lambda_g)
                walls[kernel].append(result.wall_clock_seconds)
                results[kernel] = result
        reference = min(walls[BENCH_KERNELS[0]])
        for kernel in BENCH_KERNELS:
            wall = min(walls[kernel])
            result = results[kernel]
            rungs.append(
                {
                    "scenario": name,
                    "topology": scenario.spec_label,
                    "kernel": kernel,
                    "lambda_g": lambda_g,
                    "reps": int(max(1, reps)),
                    "measured_messages": int(result.measured_messages),
                    "events_processed": int(result.events_processed),
                    # Microseconds: the native loop runs a smoke-budget point
                    # in under a millisecond, and the speedup must stay
                    # recoverable from the recorded walls.
                    "wall_clock_seconds": round(wall, 6),
                    "messages_per_second": round(result.measured_messages / wall, 1),
                    "events_per_second": round(result.events_processed / wall, 1),
                    "speedup": round(reference / wall, 2),
                }
            )
    return rungs


def run_bench(
    scenarios: Iterable[str] = BENCH_SCENARIOS,
    *,
    points: int = BENCH_POINTS,
    budget: str = "quick",
    seed: int = 0,
    smoke: bool = False,
    parallel: bool = False,
    workers: int | None = None,
) -> Dict[str, Any]:
    """Run the benchmark scenario set and return the JSON payload.

    ``smoke=True`` shrinks the budget to a few hundred messages — enough to
    execute every code path (CI keeps the harness from rotting) while making
    no timing claims; smoke payloads are marked so they are never mistaken
    for a trajectory point.

    ``parallel=True`` keeps the per-scenario trajectory measurement
    sequential (so ``messages_per_second`` stays comparable across PRs) and
    *additionally* executes the whole set as one campaign whose tasks share
    a single process pool: cold rungs at worker counts 1, 2, 4, … up to
    ``workers`` (default CPU count, capped by the task count), plus one
    warm-daemon rung at the top worker count (see :func:`_measure_scaling`).
    The resulting speedup-vs-workers curve lands in the payload's
    ``scaling`` list; results are bit-identical at every rung.
    """
    scenarios = tuple(scenarios)
    sim = api.simulation_budget(budget, seed)
    if smoke:
        sim = sim.scaled(200 / sim.measured_messages)
    requested_workers = workers if workers is not None else (os.cpu_count() or 1)
    total_tasks = points * len(scenarios)
    # The shared pool never exceeds the campaign's task count — record what
    # actually happens, not what was asked for.
    effective_workers = (
        max(1, min(requested_workers, total_tasks)) if parallel and total_tasks > 1 else 1
    )
    payload: Dict[str, Any] = {
        "schema": 1,
        "generated_unix": int(time.time()),
        "budget": budget,
        "points": int(points),
        "seed": int(seed),
        "smoke": bool(smoke),
        "parallel": bool(parallel and effective_workers > 1),
        "workers": int(effective_workers),
        "scenarios": {},
    }
    for name in scenarios:
        scenario = api.scenario(name, points=points, sim=sim)
        setup_started = time.perf_counter()
        engine = api.SimulationEngine()
        engine.prepare(scenario)  # compile + warm streams outside the timed region
        setup_seconds = time.perf_counter() - setup_started
        kernel = engine.simulator_for(scenario).kernel
        sweep_started = time.perf_counter()
        records = tuple(
            engine.evaluate(scenario, lambda_g) for lambda_g in scenario.offered_traffic
        )
        elapsed = time.perf_counter() - sweep_started
        wall = 0.0
        measured = 0
        events = 0
        for record in records:
            result = record.simulation
            wall += result.wall_clock_seconds
            measured += result.measured_messages
            events += result.events_processed
        if wall <= 0:
            raise ValidationError(
                f"benchmark scenario {name!r} reported no wall-clock time"
            )  # pragma: no cover - perf_counter is monotonic
        payload["scenarios"][name] = {
            "points": int(points),
            "topology": scenario.spec_label,
            "kernel": kernel,
            "measured_messages": measured,
            "events_processed": events,
            # Microseconds, as the kernel rungs: a smoke sweep's loop takes
            # about a millisecond.
            "wall_clock_seconds": round(wall, 6),
            "messages_per_second": round(measured / wall, 1),
            "events_per_second": round(events / wall, 1),
            # The per-layer timing split: setup (compile + stream states,
            # before any run), run (the event loop itself — the sum of the
            # per-point wall clocks, which time `execute()` only), collect
            # (everything else inside the sweep: per-run state construction,
            # pre-draws, statistics assembly).
            "setup_seconds": round(setup_seconds, 4),
            "run_seconds": round(wall, 6),
            "collect_seconds": round(max(elapsed - wall, 0.0), 4),
            "elapsed_seconds": round(elapsed, 4),
            "workers": 1,
        }
    # Smoke still measures the rung pair (the CI perf gate reads it), just
    # with fewer repetitions; ratios survive tiny budgets, absolutes don't.
    payload["kernels"] = _measure_kernels(
        scenarios, points=points, sim=sim, reps=3 if smoke else KERNEL_BENCH_REPS
    )
    if payload["parallel"]:
        campaign = bench_campaign(scenarios, points=points, sim=sim)
        payload["fan_out"] = "scenario"
        payload["scaling"] = _measure_scaling(campaign, effective_workers)
        # Worker re-queues across every rung: 0 on healthy hardware, and a
        # non-zero value flags elapsed times that include crash recovery.
        payload["task_retries"] = sum(rung["retries"] for rung in payload["scaling"])
    return payload


def attach_baseline(
    payload: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    label: str = "baseline",
) -> Dict[str, Any]:
    """Merge a previous run into ``payload`` and compute speedup ratios."""
    baseline_scenarios = baseline.get("scenarios", baseline)
    payload["baseline"] = {"label": label, "scenarios": baseline_scenarios}
    speedup: Dict[str, float] = {}
    for name, current in payload["scenarios"].items():
        reference = baseline_scenarios.get(name)
        if not reference:
            continue
        before = reference.get("messages_per_second")
        if before:
            speedup[name] = round(current["messages_per_second"] / before, 2)
    payload["speedup"] = speedup
    return payload


def write_bench(payload: Dict[str, Any], path: str | Path) -> Path:
    """Write the payload as JSON and return the path."""
    return dump_json(payload, path)


def load_baseline(path: str | Path) -> Dict[str, Any]:
    """Load a baseline payload written by :func:`write_bench`."""
    data = load_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"baseline file {path} does not hold a JSON object")
    return data


def bench_to_text(payload: Dict[str, Any]) -> str:
    """Human-readable summary of a benchmark payload."""
    lines = []
    tag = " (smoke: no timing claims)" if payload.get("smoke") else ""
    if payload.get("parallel"):
        tag += f" (parallel, {payload.get('workers', '?')} workers)"
    lines.append(
        f"simulator benchmark — budget={payload['budget']}, "
        f"points={payload['points']}, seed={payload['seed']}{tag}"
    )
    speedup = payload.get("speedup", {})
    for name, entry in payload["scenarios"].items():
        line = (
            f"  {name:<14} {entry['measured_messages']:>6} msgs  "
            f"{entry['wall_clock_seconds']:>8.3f} s  "
            f"{entry['messages_per_second']:>9.1f} msg/s"
        )
        if name in speedup:
            line += f"  ({speedup[name]:.2f}x vs {payload['baseline']['label']})"
        lines.append(line)
    kernels = payload.get("kernels")
    if kernels:
        lines.append("  kernel rungs (matched budget, min of interleaved reps):")
        for rung in kernels:
            line = (
                f"    {rung['scenario']:<14} {rung['kernel']:<11} "
                f"{rung['wall_clock_seconds']:>8.3f} s  "
                f"{rung['messages_per_second']:>9.1f} msg/s  "
                f"{rung['events_per_second']:>11.1f} ev/s"
            )
            if rung["kernel"] != BENCH_KERNELS[0]:
                line += f"  ({rung['speedup']:.2f}x vs {BENCH_KERNELS[0]})"
            lines.append(line)
    scaling = payload.get("scaling")
    if scaling:
        lines.append("  shared-pool scenario fan-out (all scenarios, one pool):")
        for rung in scaling:
            mode = rung.get("mode", "cold")
            reference = (
                f"vs {rung['workers']}-worker cold" if mode == "daemon"
                else "vs 1 worker cold"
            )
            line = (
                f"    {rung['workers']:>2} workers {mode:<11} "
                f"{rung['elapsed_seconds']:>8.3f} s  "
                f"{rung['messages_per_second']:>9.1f} msg/s  "
                f"({rung['speedup']:.2f}x {reference})"
            )
            if rung.get("warmup_seconds") is not None:
                line += f"  [warm-up {rung['warmup_seconds']:.3f} s]"
            if rung.get("retries"):
                line += f"  [{rung['retries']} retries]"
            lines.append(line)
    return "\n".join(lines)
