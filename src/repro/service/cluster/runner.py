"""The remote runner: one campaign executor behind a TCP socket.

A runner is today's evaluation machinery wrapped in the cluster protocol —
nothing about evaluation changes by being remote.  Two execution modes:

``inline`` (the default)
    Chunks evaluate in the runner process itself, one at a time.  One
    inline runner is exactly one warm worker; ``repro campaign run
    --runners N`` spawns N of them and the coordinator's shard queue is the
    pool.  Warm engine state (compiled topology, route tables, pooled RNG
    snapshots) persists across chunks and campaigns in the runner's
    engine cache, so re-runs skip compilation just like daemon workers.

``pool`` (``repro runner --workers N``)
    Chunks are forwarded to a local :class:`~repro.service.daemon.WorkerDaemon`
    warm pool — one runner machine contributing N worker processes, each
    keeping its own warm engines and compiled tables, with the daemon's
    broken-pool restart.

Fault injection (``REPRO_CAMPAIGN_FAULT``) runs in the evaluating process
exactly as for local pools.  In inline mode an injected ``crash`` takes the
whole runner down — which is the point: a dying runner is indistinguishable
from a dying machine, and the coordinator's retry machinery must converge
anyway.

Bit-identity guard: every ``run`` request carries the coordinator's kernel
switches, and the runner *refuses* mismatches instead of evaluating under
different kernel settings — a record computed under the wrong switches
would be filed under a content address that lies about its provenance.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.api import Engine, Scenario, resolve_engines
from repro.campaign import _pool_evaluate_chunk
from repro.store import kernel_switches
from repro.utils.serialization import to_jsonable
from repro.utils.validation import ValidationError

from repro.service.cluster.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)

#: Engine cache bound, mirroring the daemon worker cache: cleared wholesale
#: when it outgrows the limit.
_ENGINE_CACHE_LIMIT = 32

#: Inline evaluation is serialised *process-wide*, not per server: the
#: simulator's per-(seed, node) random-stream pool is a module-level cache,
#: so two co-hosted inline runners (embedded fleets, tests) evaluating
#: concurrently would interleave draws on shared PCG64 streams and break
#: bit-identity.  Real deployments run one runner per process and never
#: contend here.
_INLINE_EVALUATE_LOCK = threading.Lock()


class RunnerServer:
    """Serve campaign task chunks over length-prefixed JSON frames.

    Thread-per-connection (:class:`socketserver.ThreadingTCPServer`), so a
    coordinator's ``ping`` is answered even while a chunk evaluates.
    Evaluation itself is serialised through a lock in inline mode — one
    inline runner is one worker, and two interleaved simulations would just
    thrash its caches — while pool mode fans chunks into the daemon.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 0,
    ) -> None:
        self.mode = "pool" if workers > 0 else "inline"
        self._daemon = None
        if workers > 0:
            from repro.service.daemon import WorkerDaemon

            self._daemon = WorkerDaemon(max_workers=workers)
        self._evaluate_lock = threading.Lock()
        self._engines: Dict[Tuple[str, str], Tuple[Engine, Scenario]] = {}
        self.tasks_evaluated = 0
        self.chunks_evaluated = 0

        runner = self

        class _Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:  # noqa: D102 - socketserver plumbing
                runner._serve_connection(self.request)

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._shutdown_requested = threading.Event()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ----------------------------------------------------------------- serving
    def start(self) -> "RunnerServer":
        """Serve in a background thread (tests and embedded fleets)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name=f"repro-runner-{self.port}",
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until ``shutdown`` arrives (the CLI)."""
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self.close()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._daemon is not None:
            self._daemon.shutdown()
            self._daemon = None

    def __enter__(self) -> "RunnerServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -------------------------------------------------------------- connection
    def _serve_connection(self, sock: socket.socket) -> None:
        """One request/response loop per connection, until EOF or shutdown."""
        try:
            while True:
                try:
                    request = recv_frame(sock)
                except ConnectionError:
                    return  # coordinator hung up between requests
                except ProtocolError as error:
                    # Undecodable framing: answer once, then drop the
                    # connection — the stream offset is unrecoverable.
                    send_frame(sock, {"ok": False, "error": str(error)})
                    return
                response = self._dispatch(request)
                send_frame(sock, response)
                if request.get("op") == "shutdown":
                    # Response flushed first so the coordinator's shutdown
                    # round-trip completes; stop serving from a helper
                    # thread because shutdown() joins the serve loop.
                    self._shutdown_requested.set()
                    threading.Thread(target=self._server.shutdown).start()
                    return
        except OSError:
            return  # connection reset mid-frame: nothing left to answer

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        try:
            if op == "ping":
                return self._op_ping()
            if op == "run":
                return self._op_run(request)
            if op == "shutdown":
                return {"ok": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as error:  # noqa: BLE001 - marshalled to coordinator
            return {"ok": False, "error": repr(error)}

    def _op_ping(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "mode": self.mode,
            # Chunk-concurrency hint for the coordinator: an inline runner
            # is one worker; a pool runner can absorb one chunk per worker.
            "workers": self._daemon.max_workers if self._daemon is not None else 1,
            "switches": kernel_switches(),
            "tasks_evaluated": self.tasks_evaluated,
        }

    def _op_run(self, request: Dict[str, Any]) -> Dict[str, Any]:
        protocol = request.get("protocol")
        if protocol != PROTOCOL_VERSION:
            return {
                "ok": False,
                "error": f"protocol mismatch: runner speaks {PROTOCOL_VERSION}, "
                f"request is {protocol!r}",
            }
        ours = kernel_switches()
        theirs = request.get("switches")
        if theirs != ours:
            # Refusing is what protects content addresses: the coordinator
            # hashed *its* switches into each task key, so evaluating under
            # different ones would file a lying record.
            return {
                "ok": False,
                "error": f"kernel switches mismatch: runner has {ours}, "
                f"coordinator sent {theirs}",
            }
        try:
            (engine, scenario) = self._resolve(
                str(request["engine"]), request["scenario"]
            )
            items: List[Tuple[float, str]] = [
                (float.fromhex(task["lambda_hex"]), str(task["task_id"]))
                for task in request["tasks"]
            ]
        except (KeyError, TypeError, ValueError, ValidationError) as error:
            return {"ok": False, "error": f"malformed run request: {error!r}"}
        outcomes = self._evaluate_chunk(engine, scenario, items)
        wire_outcomes = [
            [status, to_jsonable(payload) if status == "ok" else payload]
            for status, payload in outcomes
        ]
        self.chunks_evaluated += 1
        self.tasks_evaluated += len(items)
        return {"ok": True, "outcomes": wire_outcomes}

    # -------------------------------------------------------------- evaluation
    def _resolve(
        self, engine_name: str, scenario_dict: Dict[str, Any]
    ) -> Tuple[Engine, Scenario]:
        """Warm (engine, scenario) pair for a request, cached like daemon workers.

        Evaluation reuses the *cached* scenario object because engine
        memoisation is identity-based — a freshly parsed (but equal)
        scenario would rebuild the simulator it came to reuse.
        """
        cache_key = (engine_name, json.dumps(scenario_dict, sort_keys=True))
        with self._evaluate_lock:
            cached = self._engines.get(cache_key)
            if cached is not None:
                return cached
            scenario = Scenario.from_dict(scenario_dict)
            (engine,) = resolve_engines((engine_name,))
            if len(self._engines) >= _ENGINE_CACHE_LIMIT:
                self._engines.clear()
            self._engines[cache_key] = (engine, scenario)
            return engine, scenario

    def _evaluate_chunk(
        self,
        engine: Engine,
        scenario: Scenario,
        items: List[Tuple[float, str]],
    ) -> List[Tuple[str, Any]]:
        if self._daemon is not None:
            future = self._daemon.submit_chunk(
                engine, scenario, items, "runner", named_engine=True
            )
            return future.result()
        with _INLINE_EVALUATE_LOCK:
            return _pool_evaluate_chunk(engine, scenario, items)


def parse_listen_spec(spec: str) -> Tuple[str, int]:
    """``host:port`` / ``:port`` / bare ``port`` -> (host, port)."""
    text = spec.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    try:
        port = int(port_text)
    except ValueError:
        raise ValidationError(f"invalid listen spec {spec!r}: bad port {port_text!r}")
    if not 0 <= port <= 65535:
        raise ValidationError(f"invalid listen spec {spec!r}: port out of range")
    return host or "127.0.0.1", port


def run_runner(
    listen: str = "127.0.0.1:0",
    *,
    workers: int = 0,
    announce: bool = True,
) -> None:
    """``repro runner`` entry point: serve until a ``shutdown`` op arrives.

    ``announce`` prints one parseable ``runner listening on HOST:PORT``
    line — with ``--listen :0`` that is how fleets and scripts learn the
    kernel-assigned port.
    """
    host, port = parse_listen_spec(listen)
    server = RunnerServer(host, port, workers=workers)
    if announce:
        print(f"runner listening on {server.address} ({server.mode})", flush=True)
    server.serve_forever()
