"""The in-process workloads: ``cold_fig3`` and ``steady_mix``.

Both run one operation after another until the run's time is up.  An
operation is a fixed sequence of steps, each a call into the program timed
by a span of the benchmark's own.  With tracing on, operations alternate
between untraced and traced: a traced operation also wraps each layer's
entry point in a span, so its ledger gives per-layer self times, and the
difference between traced and untraced operations is the tracing overhead.
Every operation replays the same seeds, so its records must equal the first
operation's; a traced record must equal its untraced twin the same way.

End-to-end times are host-speed-normalised medians (see
:class:`common.HostSpeed`): an untraced operation times the calibration
loop before each step and after the last, its time is the sum of its steps
divided by the mean of those loop times, and the run reports the median
operation.  Each set-up is normalised the same way, by the loop timed
before and after it.  Per-layer times are best-of-run: the fastest traced
repeat.
"""

from __future__ import annotations

import gc
import random
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from common import HostSpeed, canonical, median, peak_rss_mb, run_program
from tracing import Tracer

#: Set-ups per run; ``setup_s`` is the median.
SETUPS = 11
#: Span names of program layers; the rest ("op", "step.*") are the
#: benchmark's own spans around its calls into the program.
LAYERS = (
    "topology.compile",
    "routing.compile",
    "rng.warm_streams",
    "sim.run",
    "sim.event_loop",
    "model.eval",
    "store.put",
    "store.get",
)


def layer_hooks() -> List[tuple]:
    """The public entry point of each layer, as :class:`Tracer` hooks."""
    from repro.api import AnalyticalEngine
    from repro.routing import compile as routing_compile
    from repro.sim.simulator import STREAM_KINDS, MultiClusterSimulator
    from repro.store import ResultStore
    from repro.topology import compile as topology_compile

    def after_warm_streams(tracer: Tracer, span: Any, result: Any, args: tuple) -> None:
        span.attrs["streams"] = args[0].spec.total_nodes * len(STREAM_KINDS)

    def after_run(tracer: Tracer, span: Any, result: Any, args: tuple) -> None:
        # MultiClusterSimulator.run reports its own event-loop wall time;
        # the rest of the call is per-run state set-up and statistics.
        span.attrs["messages"] = result.measured_messages
        tracer.add_tail_child(
            span, "sim.event_loop", result.wall_clock_seconds, events=result.events_processed
        )

    return [
        ("topology.compile", topology_compile, "compile_system"),
        ("routing.compile", routing_compile, "compile_system_routes"),
        ("routing.compile", routing_compile.CompiledSystemRoutes, "warm"),
        ("routing.compile", routing_compile.CompiledZooRoutes, "warm"),
        ("rng.warm_streams", MultiClusterSimulator, "warm_streams", after_warm_streams),
        ("sim.run", MultiClusterSimulator, "run", after_run),
        ("model.eval", AnalyticalEngine, "evaluate"),
        ("store.put", ResultStore, "put"),
        ("store.get", ResultStore, "get"),
    ]


@contextmanager
def step(tracer: Tracer, speed: Optional[HostSpeed], name: str, **attrs: Any) -> Iterator[None]:
    """One timed step of an operation, after a calibration sample if ``speed``."""
    if speed is not None:
        speed.sample()
    with tracer.span(name, **attrs):
        yield


def clear_caches() -> None:
    """Drop every compiled and pooled artifact a first run would build."""
    from repro.routing.compile import clear_route_caches
    from repro.topology.compile import clear_compile_caches
    from repro.topology.fat_tree import clear_shared_trees
    from repro.utils.rng import clear_stream_pool

    clear_compile_caches()
    clear_route_caches()
    clear_shared_trees()
    clear_stream_pool()


def _runset_text(runsets: List[Any]) -> str:
    from repro.utils.serialization import to_jsonable

    return canonical([to_jsonable(runset) for runset in runsets])


def _sim_messages(runsets: List[Any]) -> int:
    return sum(
        record.simulation.measured_messages
        for runset in runsets
        for record in runset.records
        if record.simulation is not None
    )


class ColdFig3:
    """A cold run of fig3 (model+sim, 3 points) into a fresh store.

    Every operation first clears the compile, route, shared-tree and stream
    caches, then pays, in order, what a first ``repro run fig3`` pays:
    topology compile, route compile, stream warm-up, and the sequential run
    itself with its store writes.  The run is one ``api.run`` per point, as
    in :meth:`SteadyMix.op`: the same records and store writes as one
    3-point ``api.run``, in steps short enough to time steadily.
    """

    #: The set-up runs in a child process, on either CPU.
    SETUP_IN_CHILD = True

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro import api

        self.workdir = workdir
        self.scenario = api.scenario(
            "fig3", points=3, budget="default", seed=random.Random(seed).randrange(2**31)
        )

    def setup(self) -> float:
        """A fresh interpreter importing the library: all a cold run sets up."""
        started = time.perf_counter()
        done = run_program(["-c", "import repro.api, repro.campaign, repro.store"], timeout=60)
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError(f"importing the library failed:\n{done.stderr}")
        return elapsed

    def route_pairs(self) -> int:
        from repro.routing.compile import route_table_size

        spec = self.scenario.system
        shapes = {(spec.m, height) for height in (*spec.cluster_heights, spec.icn2_height)}
        return sum(route_table_size(m, n) for m, n in shapes)

    def op(self, tracer: Tracer, speed: Optional[HostSpeed]) -> List[Any]:
        from repro import api
        from repro.routing import compile as routing_compile
        from repro.store import ResultStore
        from repro.topology import compile as topology_compile

        clear_caches()
        # Start from a collected heap, as a fresh process does: otherwise the
        # previous operation's tables decide how much the collector walks.
        gc.collect()
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        store = ResultStore(store_dir, backend="sqlite")
        spec = self.scenario.system
        try:
            with step(tracer, speed, "step.topology"):
                topology_compile.compile_system(spec)
            with step(tracer, speed, "step.routes"):
                routing_compile.compile_system_routes(spec).warm()
            with step(tracer, speed, "step.streams"):
                api.SimulationEngine().simulator_for(self.scenario).warm_streams()
            runsets = []
            for index, lambda_g in enumerate(self.scenario.offered_traffic):
                with step(tracer, speed, f"step.run.{index}"):
                    point = self.scenario.with_traffic((lambda_g,))
                    runsets.append(api.run(point, ("model", "sim"), store=store))
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        return runsets


class SteadyMix:
    """Warm-cache sweeps: fig4, hotspot and zoo/torus, sim only, no store."""

    FAMILIES = (("fig4", "fig4"), ("hotspot", "hotspot"), ("torus", "zoo/torus"))
    SETUP_IN_CHILD = False

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro import api

        rng = random.Random(seed)
        self.scenarios = [
            (family, api.scenario(name, points=3, budget="default", seed=rng.randrange(2**31)))
            for family, name in self.FAMILIES
        ]

    def setup(self) -> float:
        """Compile and stream warm-up of every scenario, from cold caches."""
        from repro import api

        clear_caches()
        started = time.perf_counter()
        for _, scenario in self.scenarios:
            api.SimulationEngine().prepare(scenario)
        return time.perf_counter() - started

    def route_pairs(self) -> int:
        return 0  # caches stay warm: no operation compiles a route

    def op(self, tracer: Tracer, speed: Optional[HostSpeed]) -> List[Any]:
        """One sweep, one ``api.run`` per point.

        A point's records do not depend on the rest of its grid, so this is
        the 3-point sweep of each scenario; running the points one by one
        puts a calibration sample between every two points.
        """
        from repro import api

        runsets = []
        for family, scenario in self.scenarios:
            for index, lambda_g in enumerate(scenario.offered_traffic):
                with step(tracer, speed, f"step.{family}.{index}", family=family):
                    point = scenario.with_traffic((lambda_g,))
                    runsets.append(api.run(point, ("sim",), store=None))
        return runsets


def _best_sum(rows: List[Dict[str, float]]) -> float:
    """Sum over keys of each key's smallest value across rows."""
    keys = {key for row in rows for key in row}
    return sum(min(row.get(key, 0.0) for row in rows) for key in keys)


def _ledger(tracer: Tracer, request: str) -> Dict[str, float]:
    """Per-layer self times and counts of one traced operation."""
    spans = tracer.request_spans(request)
    by_id = {span.id: span for span in spans}
    selfs = tracer.self_times(request)
    row = {name: selfs.get(name, 0.0) for name in LAYERS}
    # Self time of the benchmark's own spans: the operation minus its layers.
    row["residual"] = sum(selfs.values()) - sum(row.values())
    row["store.puts"] = tracer.counts(request).get("store.put", 0)
    row["rng.streams"] = sum(span.attrs.get("streams", 0) for span in spans)
    row["messages"] = sum(span.attrs.get("messages", 0) for span in spans)
    loops = [span for span in spans if span.name == "sim.event_loop"]
    row["sim.events"] = sum(span.attrs["events"] for span in loops)
    for loop in loops:
        family = None
        ancestor = by_id.get(loop.parent)
        while ancestor is not None and family is None:
            family = ancestor.attrs.get("family")
            ancestor = by_id.get(ancestor.parent)
        if family is not None:
            row[f"events.{family}"] = row.get(f"events.{family}", 0) + loop.attrs["events"]
            row[f"loop.{family}"] = row.get(f"loop.{family}", 0.0) + loop.duration
    return row


def run(workload_cls: type, seed: int, seconds: float, trace: bool, tracer: Tracer, workdir: Path) -> Dict[str, Any]:
    workload = workload_cls(seed, workdir)
    setup_speed = HostSpeed(every_cpu=workload.SETUP_IN_CHILD)
    setups = []
    for _ in range(SETUPS):
        before = setup_speed.sample()
        elapsed = workload.setup()
        setups.append(HostSpeed.normalise(elapsed, (before, setup_speed.sample())))
    speed = HostSpeed()

    steps: Dict[bool, List[Dict[str, float]]] = {False: [], True: []}
    normalised_ops: List[float] = []
    ledgers: List[Dict[str, float]] = []
    messages = 0
    reference: Optional[str] = None
    attempted = failed = 0
    hooks = layer_hooks() if trace else []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced = trace and index % 2 == 1
        request = f"op{index}"
        index += 1
        attempted += 1
        try:
            # Traced operations take no calibration sample: it would land in
            # the operation's residual.
            op_speed = None if traced else speed
            first_sample = len(speed.samples)
            with tracer.instrumented(hooks) if traced else nullcontext():
                with tracer.span("op", request=request):
                    runsets = workload.op(tracer, op_speed)
            if op_speed is not None:
                op_speed.sample()
            errors: List[str] = []
            text = _runset_text(runsets)
            if reference is None:
                reference = text
            elif text != reference:
                errors.append("records differ from the first operation's")
            if traced:
                errors += tracer.nesting_errors(request)
                ledgers.append(_ledger(tracer, request))
            messages = _sim_messages(runsets)
            if errors:
                failed += 1
                print(f"{request}: {'; '.join(errors)}", file=sys.stderr)
            else:
                durations = {
                    span.name: span.duration
                    for span in tracer.request_spans(request)
                    if span.name.startswith("step.")
                }
                steps[traced].append(durations)
                if not traced:
                    normalised_ops.append(speed.normalise(
                        sum(durations.values()), speed.samples[first_sample:]
                    ))
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            failed += 1
            traceback.print_exc()
        covered = steps[False] and (steps[True] or not trace)
        if time.perf_counter() >= deadline and (covered or failed):
            break
    if not covered:
        raise RuntimeError("no operation of the run succeeded")

    print(
        f"unnormalised: best-of-run op {_best_sum(steps[False]) * 1e3:.1f} ms, "
        f"calibration loop median {median(speed.samples) * 1e3:.2f} ms",
        file=sys.stderr,
    )
    if not trace:
        op_s = median(normalised_ops)
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "setup_s": median(setups),
                "op_ms": op_s * 1e3,
                "sim_msgs_per_s": messages / op_s,
                "peak_rss_mb": peak_rss_mb(),
            },
        }

    best = {key: min(row.get(key, 0.0) for row in ledgers) for key in {k for row in ledgers for k in row}}
    events = best["sim.events"]
    metrics = {
        "topology.compile_s": best["topology.compile"],
        "routing.compile_s": best["routing.compile"],
        "routing.pairs": workload.route_pairs(),
        "rng.warm_streams_s": best["rng.warm_streams"],
        "rng.streams": best["rng.streams"],
        "sim.run_init_s": best["sim.run"],
        "sim.event_loop_s": best["sim.event_loop"],
        "sim.events": events,
        "sim.events_per_s": events / best["sim.event_loop"] if events else 0.0,
        "sim.events_per_msg": events / best["messages"] if events else 0.0,
        "model.eval_s": best["model.eval"],
        "store.put_s": best["store.put"],
        "store.puts": best["store.puts"],
        "campaign.residual_s": best["residual"],
        "trace.overhead_s": _best_sum(steps[True]) - _best_sum(steps[False]),
    }
    for family, _ in getattr(workload, "FAMILIES", ()):
        metrics[f"sim.events_per_s.{family}"] = best[f"events.{family}"] / best[f"loop.{family}"]
    return {"attempted": attempted, "failed": failed, "metrics": metrics}
