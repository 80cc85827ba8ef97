"""The coordinator side: shard a campaign's task queue over remote runners.

:class:`ClusterBackend` is a :class:`~repro.campaign.WorkerBackend`, so the
executor that drives a local process pool drives a fleet unchanged — the
flattened task queue, the store-first cache pass, chunked submission and the
whole :class:`~repro.campaign.RetryPolicy` machinery all apply as-is.  Each
live runner gets dispatcher threads that pull chunks off one shared round
queue (work-stealing between unequal machines for free) and block on the
socket round-trip; results come back as JSON records, are rebuilt into
:class:`~repro.api.RunRecord` and flow through the executor's ordinary
``_persist`` path — i.e. straight into the coordinator's content-addressed
store under the very keys a local run would use.

Failure model: a socket-level loss (:class:`RunnerLost`) marks the runner
dead for the rest of the campaign and fails the in-flight chunk, which the
executor books as one charged attempt per task (``TaskRetried`` while the
policy has attempts left, ``TaskFailed`` after).  The re-queued tasks land
on the surviving runners in the next round, because ``begin_round`` pings
the fleet and only live runners get dispatchers.  A runner *reply* of
``ok=false`` (unknown engine, kernel-switch mismatch) raises
:class:`RunnerError` instead: same per-task charging, but the runner stays
in the fleet.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.api import Engine, RunRecord, Scenario
from repro.campaign import ChunkOutcome, WorkerBackend
from repro.store import kernel_switches
from repro.utils.serialization import from_jsonable
from repro.utils.validation import ValidationError

from repro.service.cluster.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)

#: Dispatcher threads per runner are capped so a huge pool-mode runner
#: cannot starve the coordinator of threads.
_MAX_DISPATCHERS_PER_RUNNER = 8


class RunnerLost(RuntimeError):
    """The socket to a runner died — treat the machine as gone."""


class RunnerError(RuntimeError):
    """A live runner refused or failed a request (it keeps serving)."""


def parse_runner_spec(spec: str) -> Union[int, List[str]]:
    """Parse ``--runners``: ``"3"`` -> 3 auto-spawned localhost runners,
    ``"host1:port1,host2:port2"`` -> explicit addresses."""
    text = spec.strip()
    if not text:
        raise ValidationError("--runners must name addresses or a count")
    if text.isdigit():
        count = int(text)
        if count < 1:
            raise ValidationError("--runners count must be >= 1")
        return count
    addresses = []
    for part in text.split(","):
        part = part.strip()
        host, sep, port_text = part.rpartition(":")
        if not sep or not host:
            raise ValidationError(
                f"invalid runner address {part!r} (expected host:port)"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ValidationError(f"invalid runner address {part!r}: bad port")
        if not 1 <= port <= 65535:
            raise ValidationError(f"invalid runner address {part!r}: port out of range")
        addresses.append(f"{host}:{port}")
    return addresses


def _split_address(address: str) -> Tuple[str, int]:
    host, _, port_text = address.rpartition(":")
    return host, int(port_text)


class RunnerClient:
    """One persistent connection to one runner, with RunnerLost semantics.

    Not thread-safe by itself — each dispatcher thread owns a private
    client, so concurrent chunks to one runner ride parallel connections
    (the runner is thread-per-connection anyway).
    """

    def __init__(self, address: str, *, connect_timeout: float = 10.0) -> None:
        self.address = address
        self.connect_timeout = connect_timeout
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    def _connect(self) -> socket.socket:
        host, port = _split_address(self.address)
        sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        # Requests block indefinitely once connected: a long simulation is
        # not a dead runner.  Reclaiming a genuinely hung runner is the
        # retry policy's task timeout (kill_workers aborts the socket).
        sock.settimeout(None)
        return sock

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One round-trip; socket-level failure closes and raises RunnerLost."""
        try:
            with self._lock:
                if self._sock is None:
                    self._sock = self._connect()
                sock = self._sock
            send_frame(sock, payload)
            return recv_frame(sock)
        except (ConnectionError, ProtocolError, OSError) as error:
            self.close()
            raise RunnerLost(f"runner {self.address} lost: {error}") from error

    def ping(self, *, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Ping with an optional response deadline (liveness, not work)."""
        try:
            with self._lock:
                if self._sock is None:
                    self._sock = self._connect()
                sock = self._sock
            if timeout is not None:
                sock.settimeout(timeout)
            try:
                send_frame(sock, {"op": "ping"})
                response = recv_frame(sock)
            finally:
                if timeout is not None and self._sock is not None:
                    sock.settimeout(None)
        except (ConnectionError, ProtocolError, OSError) as error:
            self.close()
            raise RunnerLost(f"runner {self.address} lost: {error}") from error
        if not response.get("ok"):
            raise RunnerError(
                f"runner {self.address} ping failed: {response.get('error')}"
            )
        return response

    def run_chunk(self, payload: Dict[str, Any]) -> List[ChunkOutcome]:
        """Send one ``run`` request; rebuild records from the reply."""
        response = self.request(payload)
        if not response.get("ok"):
            raise RunnerError(
                f"runner {self.address} rejected chunk: {response.get('error')}"
            )
        outcomes: List[ChunkOutcome] = []
        try:
            for status, body in response["outcomes"]:
                if status == "ok":
                    outcomes.append(("ok", from_jsonable(RunRecord, body)))
                else:
                    outcomes.append(("error", str(body)))
        except (KeyError, TypeError, ValueError) as error:
            raise RunnerError(
                f"runner {self.address} returned a malformed outcome: {error!r}"
            ) from error
        return outcomes

    def shutdown(self) -> None:
        """Best-effort remote shutdown (fleet teardown)."""
        try:
            self.request({"op": "shutdown"})
        except (RunnerLost, RunnerError):
            pass
        self.close()

    def abort(self) -> None:
        """Abort an in-flight request from another thread (timeout reclaim)."""
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


class _Dispatcher:
    """One worker slot on one runner: a thread plus its private client."""

    def __init__(self, backend: "ClusterBackend", address: str) -> None:
        self.backend = backend
        self.address = address
        self.client = RunnerClient(
            address, connect_timeout=backend.connect_timeout
        )
        self.thread = threading.Thread(
            target=self._loop, daemon=True, name=f"repro-dispatch-{address}"
        )

    def _loop(self) -> None:
        backend = self.backend
        work = backend._work
        assert work is not None
        try:
            while True:
                item = work.get()
                if item is None:
                    return
                future, payload = item
                if not future.set_running_or_notify_cancel():
                    continue
                try:
                    outcomes = self.client.run_chunk(payload)
                except RunnerLost as error:
                    future.set_exception(error)
                    backend._mark_dead(self.address)
                    return  # this runner is gone; surviving dispatchers drain
                except Exception as error:  # noqa: BLE001 - charged per task
                    future.set_exception(error)
                else:
                    future.set_result(outcomes)
        finally:
            backend._dispatcher_exited()
            self.client.close()


class ClusterBackend(WorkerBackend):
    """Run a campaign's pooled tasks on a fleet of socket runners.

    Distributed campaigns require registry-named engines: an engine crosses
    the wire as its registry name plus the scenario JSON, never as pickled
    code.  (In practice every campaign built from strings — the CLI, the
    server, ``api.run`` — qualifies; only programmatic custom ``Engine``
    objects do not, and those fail with a structured per-task error.)

    ``workers`` for the executor's accounting is the fleet's total worker
    count (inline runners count 1 each, pool runners their pool size), and
    chunk concurrency matches it: that many dispatcher threads, each
    blocking on one in-flight chunk.
    """

    persistent = True

    def __init__(
        self,
        runners: Sequence[str],
        *,
        fleet: Optional["LocalRunnerFleet"] = None,
        connect_timeout: float = 10.0,
    ) -> None:
        if not runners:
            raise ValidationError("ClusterBackend needs at least one runner address")
        self.addresses: Tuple[str, ...] = tuple(dict.fromkeys(runners))
        self.connect_timeout = connect_timeout
        self._fleet = fleet
        self._dead: set = set()
        self._dead_lock = threading.Lock()
        self._work: Optional["queue.Queue"] = None
        self._dispatchers: List[_Dispatcher] = []
        self._live_dispatchers = 0
        self._round_switches: Dict[str, str] = {}

    # ---------------------------------------------------------------- liveness
    def _mark_dead(self, address: str) -> None:
        with self._dead_lock:
            self._dead.add(address)

    def dead_runners(self) -> Tuple[str, ...]:
        with self._dead_lock:
            return tuple(sorted(self._dead))

    def _dispatcher_exited(self) -> None:
        """Last dispatcher out fails whatever is still queued — nothing else
        will ever pop it, and a future nobody resolves hangs the campaign."""
        with self._dead_lock:
            self._live_dispatchers -= 1
            last = self._live_dispatchers <= 0
        work = self._work
        if not last or work is None:
            return
        while True:
            try:
                item = work.get_nowait()
            except queue.Empty:
                return
            if item is None:
                continue
            future, _ = item
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    RunnerLost("every runner was lost with chunks still queued")
                )

    # ------------------------------------------------------------------ rounds
    def begin_round(self, workers: int) -> int:
        with self._dead_lock:
            candidates = [a for a in self.addresses if a not in self._dead]
        live: List[Tuple[str, int]] = []
        for address in candidates:
            client = RunnerClient(address, connect_timeout=self.connect_timeout)
            try:
                info = client.ping(timeout=self.connect_timeout)
            except RunnerLost:
                self._mark_dead(address)
                continue
            except RunnerError:
                self._mark_dead(address)
                continue
            finally:
                client.close()
            slots = max(1, int(info.get("workers", 1)))
            live.append((address, min(slots, _MAX_DISPATCHERS_PER_RUNNER)))
        if not live:
            raise RunnerLost(
                f"no live runners among {', '.join(self.addresses)} "
                f"(dead: {', '.join(self.dead_runners()) or 'none'})"
            )
        self._round_switches = kernel_switches()
        self._work = queue.Queue()
        self._dispatchers = [
            _Dispatcher(self, address)
            for address, slots in live
            for _ in range(slots)
        ]
        with self._dead_lock:
            self._live_dispatchers = len(self._dispatchers)
        for dispatcher in self._dispatchers:
            dispatcher.thread.start()
        return sum(slots for _, slots in live)

    def submit_chunk(
        self,
        engine: Engine,
        scenario: Scenario,
        items: Sequence[Tuple[float, str]],
        execution: str,
        *,
        named_engine: bool,
    ) -> Future:
        future: Future = Future()
        payload = {
            "op": "run",
            "protocol": PROTOCOL_VERSION,
            "engine": engine.name,
            "scenario": scenario.to_dict(),
            "tasks": [
                {"lambda_hex": float(lambda_g).hex(), "task_id": task_id}
                for lambda_g, task_id in items
            ],
            "switches": self._round_switches,
        }
        assert self._work is not None, "submit_chunk outside a round"
        self._work.put((future, payload))
        return future

    def kill_workers(self) -> None:
        """Timeout reclaim: abort every in-flight socket.

        The runners whose requests we abandon are marked dead by their
        dispatchers — mid-request abandonment leaves a runner in an unknown
        state (an inline runner may still be grinding the hung task), and a
        machine we cannot trust to be idle is a machine we stop scheduling.
        """
        for dispatcher in self._dispatchers:
            dispatcher.client.abort()

    def end_round(self, *, broken: bool) -> None:
        if self._work is not None:
            for _ in self._dispatchers:
                self._work.put(None)
        for dispatcher in self._dispatchers:
            dispatcher.thread.join(timeout=30.0)
        self._dispatchers = []
        self._work = None

    def close(self) -> None:
        if self._fleet is not None:
            self._fleet.close()
            self._fleet = None


class LocalRunnerFleet:
    """Auto-spawned loopback runner subprocesses (``--runners N``).

    Each subprocess is ``python -m repro runner --listen 127.0.0.1:0``; the
    kernel-assigned port is parsed from the runner's announce line.  The
    fleet inherits this process's environment, so kernel switches (and the
    fault-injection hook in tests) propagate to every runner.
    """

    def __init__(
        self,
        count: int,
        *,
        workers_per_runner: int = 0,
        spawn_timeout: float = 30.0,
    ) -> None:
        if count < 1:
            raise ValidationError("a runner fleet needs at least one runner")
        self.processes: List[subprocess.Popen] = []
        self.addresses: List[str] = []
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        command = [sys.executable, "-m", "repro", "runner", "--listen", "127.0.0.1:0"]
        if workers_per_runner > 0:
            command += ["--workers", str(workers_per_runner)]
        try:
            for _ in range(count):
                process = subprocess.Popen(
                    command,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    env=env,
                    text=True,
                )
                self.processes.append(process)
            for process in self.processes:
                self.addresses.append(self._read_announce(process, spawn_timeout))
        except Exception:
            self.close()
            raise

    @staticmethod
    def _read_announce(process: subprocess.Popen, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        assert process.stdout is not None
        line = ""
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise RunnerLost(
                    f"runner subprocess exited with {process.returncode} before "
                    "announcing its port"
                )
            line = process.stdout.readline()
            if line:
                break
        if "listening on" not in line:
            raise RunnerLost(f"unexpected runner announce line: {line!r}")
        return line.split("listening on", 1)[1].split()[0]

    def __enter__(self) -> "LocalRunnerFleet":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        for process, address in zip(self.processes, self.addresses):
            if process.poll() is None:
                RunnerClient(address, connect_timeout=2.0).shutdown()
        for process in self.processes:
            if process.poll() is None:
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    process.terminate()
                    try:
                        process.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        process.kill()
                        process.wait()
            if process.stdout is not None:
                process.stdout.close()
        self.processes = []
        self.addresses = []
