"""``serve_mix``: one closed-loop client against a ``repro serve`` subprocess.

The server runs with two pool workers on a fresh SQLite store.  One client
sends one request at a time over one connection at a time.  In every block
of ten requests, nine re-POST a warm plan (all store hits) and one, at a
seeded position, POSTs a cold one-point plan with a fresh seed.

After the timed loop the server is stopped, and the layers it hides are
measured in this process against its store: store reads, the campaign hit
path, and the model and simulator evaluations of every cold request, whose
records must equal the served ones.

End-to-end times are host-speed-normalised medians (see
:class:`common.HostSpeed`).  The client, the server and its workers share
both CPUs, so the calibration loop is timed on each CPU in turn and the
mean taken.  It runs right before and after each set-up, which is divided
by those two times, and between blocks of the mix; the median block is
divided by the run's median loop time.  Over six seeds on the 2-vCPU VM
the benchmark was tuned on, these estimates spread least: block by block
the correction spread 0.08 and the median block over the run 0.05; for
set-up, the other way round, 0.11 and 0.22.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import HostSpeed, canonical, median, percentile, program_env, ROOT
from tracing import Tracer

#: Set-ups per run; ``setup_s`` is the median.
SETUPS = 5
WORKERS = 2
COLD_EVERY = 10
#: In-process repeats of the campaign hit path and of each store read.
HIT_REPEATS = 20
#: Served cold requests replayed in process (the first ones of the run).
COLD_REPLAYS = 40
#: Seconds a request, a start or a stop may take before the run gives up.
REQUEST_TIMEOUT_S = 120
START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 30


def warm_plan(seeds: Tuple[int, int]) -> Dict[str, Any]:
    """fig4 model+sim and zoo/torus sim, 3 points each: 9 store hits once warm."""
    return {
        "name": "warm",
        "entries": [
            {"scenario": "fig4", "engines": ["model", "sim"], "points": 3,
             "budget": "default", "seed": seeds[0]},
            {"scenario": "zoo/torus", "engines": ["sim"], "points": 3,
             "budget": "default", "seed": seeds[1]},
        ],
    }


def cold_plan(seed: int) -> Dict[str, Any]:
    """One heterogeneous point: one inline model task, one pooled sim task."""
    return {
        "name": "cold",
        "entries": [
            {"scenario": "heterogeneous", "engines": ["model", "sim"], "points": 1,
             "budget": "quick", "seed": seed},
        ],
    }


class RequestFailed(RuntimeError):
    pass


class Server:
    """A ``repro serve`` subprocess on an ephemeral port and its own store."""

    def __init__(self, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.store_dir = workdir / "store"
        self.log_path = workdir / "serve.log"
        self.segments: set = set()
        with self.log_path.open("wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(WORKERS), "--backend", "sqlite",
                 "--store", str(self.store_dir)],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=program_env(),
                cwd=ROOT,
            )
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if "http://" in line:
                    return int(line.rsplit(":", 1)[1].split("/")[0])
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"server did not announce a port:\n{self.log_path.read_text()}")

    def _exchange(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def post(self, plan: bytes) -> bytes:
        """POST a plan and return the whole SSE body."""
        status, body = self._exchange("POST", "/campaigns", plan)
        if status != 200:
            raise RequestFailed(f"HTTP {status}: {body[:200]!r}")
        return body

    def health(self) -> Dict[str, Any]:
        status, body = self._exchange("GET", "/health")
        if status != 200:
            raise RequestFailed(f"/health answered HTTP {status}")
        health = json.loads(body)
        self.segments.update(health["shared_memory_segments"])
        return health

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the server process")

    def stop(self) -> List[str]:
        """SIGTERM, wait, and report anything the server left behind."""
        errors = []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                errors.append("server ignored SIGTERM")
                self.process.kill()
                self.process.wait()
        if self.process.returncode != 0:
            errors.append(f"server exited with status {self.process.returncode}")
        leaked = sorted(name for name in self.segments if os.path.exists(f"/dev/shm/{name}"))
        if leaked:
            errors.append(f"shared-memory segments left behind: {leaked}")
        return errors


def result_event(body: bytes) -> Dict[str, Any]:
    """The terminal ``result`` event of an SSE body."""
    frame = body.decode("utf-8").strip().rsplit("\n\n", 1)[-1]
    name, data = None, []
    for line in frame.split("\n"):
        if line.startswith("event: "):
            name = line[len("event: "):]
        elif line.startswith("data: "):
            data.append(line[len("data: "):])
    if name != "result":
        raise RequestFailed(f"stream ended with {name!r}, not a result")
    return json.loads("\n".join(data))


def check_result(result: Dict[str, Any], tasks: int, hits: int) -> List[str]:
    execution = result["execution"]
    errors = []
    if execution["failures"]:
        errors.append(f"failed tasks: {execution['failures']}")
    if (execution["tasks"], execution["cache_hits"]) != (tasks, hits):
        errors.append(
            f"{execution['tasks']} tasks / {execution['cache_hits']} hits, "
            f"expected {tasks} / {hits}"
        )
    return errors


def _start_and_fill(workdir: Path, warm: bytes, warmup_seed: int) -> Tuple[Server, str]:
    """Server start, warm-plan prefill and one cold request to warm the daemon."""
    server = Server(workdir)
    try:
        prefill = result_event(server.post(warm))
        errors = check_result(prefill, tasks=9, hits=0)
        warmup = result_event(server.post(json.dumps(cold_plan(warmup_seed)).encode()))
        errors += check_result(warmup, tasks=2, hits=0)
        if errors:
            raise RuntimeError(f"set-up requests failed: {errors}")
    except BaseException:
        server.stop()
        raise
    return server, canonical(prefill["runsets"])


def run(seed: int, seconds: float, trace: bool, tracer: Tracer, workdir: Path) -> Dict[str, Any]:
    from repro.api import AnalyticalEngine, RunSet, SimulationEngine
    from repro.campaign import Campaign, CampaignExecutor
    from repro.store import ResultStore
    from repro.utils.serialization import to_jsonable

    rng = random.Random(seed)
    warm_seeds = (rng.randrange(2**31), rng.randrange(2**31))
    warm = json.dumps(warm_plan(warm_seeds)).encode()
    cold_base = rng.randrange(2**30)
    attempted = failed = 0

    # ------------------------------------------------------------- set-up
    speed = HostSpeed(every_cpu=True)
    setups = []
    server = None
    for index in range(SETUPS):
        if server is not None:
            attempted += 1
            errors = server.stop()
            if errors:
                failed += 1
                print(f"set-up server {index}: {errors}", file=sys.stderr)
        before = speed.sample()
        started = time.perf_counter()
        with tracer.span("setup", request=f"setup{index}"):
            server, warm_text = _start_and_fill(workdir / f"server{index}", warm, cold_base)
        elapsed = time.perf_counter() - started
        setups.append(speed.normalise(elapsed, (before, speed.sample())))

    # ------------------------------------------------------ timed closed loop
    warm_ms: List[float] = []
    cold_ms: List[float] = []
    cold_served: List[Tuple[int, str]] = []
    # Seconds of each block of the mix.
    blocks: List[float] = []
    block_s = 0.0
    sim_messages = 0
    cold_slot = 0
    try:
        dispatched_before = server.health()["tasks_dispatched"]
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            if index % COLD_EVERY == 0:
                # Between blocks, with no request in flight.
                speed.sample()
                if index:
                    blocks.append(block_s)
                block_s = 0.0
                if index and time.perf_counter() >= deadline:
                    break
                cold_slot = rng.randrange(COLD_EVERY)
            cold = index % COLD_EVERY == cold_slot
            cold_seed = cold_base + 1 + len(cold_ms)
            plan = json.dumps(cold_plan(cold_seed)).encode() if cold else warm
            request = f"req{index}"
            index += 1
            attempted += 1
            try:
                started = time.perf_counter()
                with tracer.span("service.request", request=request, cold=cold):
                    body = server.post(plan)
                elapsed_ms = (time.perf_counter() - started) * 1e3
                block_s += elapsed_ms / 1e3
                result = result_event(body)
            except (OSError, RequestFailed, ValueError) as error:
                failed += 1
                print(f"{request}: {error!r}", file=sys.stderr)
                continue
            if cold:
                errors = check_result(result, tasks=2, hits=0)
                cold_ms.append(elapsed_ms)
                cold_served.append((cold_seed, canonical(result["runsets"])))
                sim_messages += sum(
                    record["simulation"]["measured_messages"]
                    for runset in result["runsets"].values()
                    for record in runset["records"]
                    if record["simulation"] is not None
                )
            else:
                errors = check_result(result, tasks=9, hits=9)
                if canonical(result["runsets"]) != warm_text:
                    errors.append("warm records differ from the prefill's")
                warm_ms.append(elapsed_ms)
            if errors:
                failed += 1
                print(f"{request}: {'; '.join(errors)}", file=sys.stderr)
        health = server.health()
        dispatched = health["tasks_dispatched"] - dispatched_before
        attempted += 1
        if dispatched != len(cold_ms):
            failed += 1
            print(f"{dispatched} tasks dispatched for {len(cold_ms)} cold requests", file=sys.stderr)
        server_rss = server.peak_rss_mb()
    finally:
        attempted += 1
        errors = server.stop()
        if errors:
            failed += 1
            print(f"server shutdown: {errors}", file=sys.stderr)

    # ------------------------------- in-process layers, against the same store
    warm_campaign = Campaign.from_dict(warm_plan(warm_seeds))

    def runsets_text(runsets: Any) -> str:
        return canonical({label: to_jsonable(runset) for label, runset in runsets})

    attempted += 1
    reference = CampaignExecutor(warm_campaign, store=None).collect()
    if runsets_text(reference) != warm_text:
        failed += 1
        print("served warm records differ from the in-process records", file=sys.stderr)

    store = ResultStore(server.store_dir, backend="sqlite")
    hit_ms = []
    for repeat in range(HIT_REPEATS):
        started = time.perf_counter()
        with tracer.span("campaign.hit", request=f"hit{repeat}"):
            hits = CampaignExecutor(warm_campaign, store=store).collect()
        hit_ms.append((time.perf_counter() - started) * 1e3)
        attempted += 1
        if hits.cache_hits != warm_campaign.total_tasks or runsets_text(hits) != warm_text:
            failed += 1
            print("in-process hit path returned other records", file=sys.stderr)
    keys = [task.cache_key for task in CampaignExecutor(warm_campaign, store=store).tasks()]
    get_ms = []
    for repeat in range(HIT_REPEATS):
        for key in keys:
            started = time.perf_counter()
            with tracer.span("store.get", request=f"get{repeat}"):
                store.get(key)
            get_ms.append((time.perf_counter() - started) * 1e3)

    scratch = ResultStore(workdir / "puts", backend="sqlite")
    model_ms, sim_ms, put_ms = [], [], []
    # The first evaluation compiles the heterogeneous system, as the
    # daemon's warm-up request did for the server; it is not timed.
    warmup = Campaign.from_dict(cold_plan(cold_base)).entries[0].scenario
    SimulationEngine().evaluate(warmup, warmup.offered_traffic[0])
    for cold_seed, served in cold_served[:COLD_REPLAYS]:
        campaign = Campaign.from_dict(cold_plan(cold_seed))
        scenario = campaign.entries[0].scenario
        lambda_g = scenario.offered_traffic[0]
        request = f"cold{cold_seed}"
        started = time.perf_counter()
        with tracer.span("model.eval", request=request):
            model = AnalyticalEngine().evaluate(scenario, lambda_g)
        model_ms.append((time.perf_counter() - started) * 1e3)
        started = time.perf_counter()
        with tracer.span("sim.eval", request=request):
            sim = SimulationEngine().evaluate(scenario, lambda_g)
        sim_ms.append((time.perf_counter() - started) * 1e3)
        for task, record in zip(CampaignExecutor(campaign, store=scratch).tasks(), (model, sim)):
            started = time.perf_counter()
            with tracer.span("store.put", request=request):
                scratch.put(task.cache_key, record)
            put_ms.append((time.perf_counter() - started) * 1e3)
        attempted += 1
        runset = RunSet(scenario=scenario, records=(model, sim))
        if runsets_text([(campaign.labels[0], runset)]) != served:
            failed += 1
            print(f"served cold records (seed {cold_seed}) differ from in-process", file=sys.stderr)

    if not trace:
        # One block of the mix, nine warm requests and one cold one: the
        # median block, host-speed-normalised.
        op_s = speed.normalise_by_run(median(blocks))
        print(
            f"unnormalised: median block {median(blocks) * 1e3:.1f} ms, "
            f"calibration loop median {median(speed.samples) * 1e3:.2f} ms",
            file=sys.stderr,
        )
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "setup_s": median(setups),
                "op_ms": op_s * 1e3,
                "sim_msgs_per_s": sim_messages / len(cold_ms) / op_s,
                "peak_rss_mb": server_rss,
            },
        }
    puts_per_cold = 2
    evaluation_ms = median(model_ms) + median(sim_ms) + puts_per_cold * median(put_ms)
    total_tasks = warm_campaign.total_tasks * len(warm_ms) + 2 * len(cold_ms)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "warm_req_p50_ms": median(warm_ms),
            "warm_req_p90_ms": percentile(warm_ms, 90),
            "cold_req_p50_ms": median(cold_ms),
            "store.get_ms": median(get_ms),
            "campaign.hit_ms": median(hit_ms),
            "service.http_ms": median(warm_ms) - median(hit_ms),
            "service.cache_hit_ratio": warm_campaign.total_tasks * len(warm_ms) / total_tasks,
            "model.eval_ms": median(model_ms),
            "sim.eval_ms": median(sim_ms),
            "store.put_ms": median(put_ms),
            "service.dispatch_ms": median(cold_ms) - evaluation_ms,
            "service.tasks_dispatched": dispatched,
        },
    }
