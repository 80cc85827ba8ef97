"""Helpers shared by the benchmark's workloads."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes (temporary stores, server logs, span files) lives
#: here, inside the checkout; temporary directories are removed on exit.
OUT = ROOT / ".perfbench"

#: Record fields that measure the run rather than its result.
RUN_DEPENDENT_FIELDS = ("wall_clock_seconds",)


def program_env() -> Dict[str, str]:
    """Environment for a subprocess running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_program(args: Sequence[str], timeout: float) -> subprocess.CompletedProcess:
    """Run ``python args...`` against the source tree and wait for it."""
    return subprocess.run(
        [sys.executable, *args],
        env=program_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _strip(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in RUN_DEPENDENT_FIELDS}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def canonical(jsonable: Any) -> str:
    """Run sets or records as JSON text, wall-clock provenance removed.

    Two results of the same seed must give the same text; NaN compares
    equal here, unlike in float comparison.
    """
    return json.dumps(_strip(json.loads(json.dumps(jsonable))), sort_keys=True)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by :func:`statistics.quantiles`."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


#: Time of one :func:`calibration_loop` on a quiet 2-vCPU Intel Xeon VM, the
#: host the benchmark was tuned on.  It only sets the scale of the
#: host-speed-normalised times; see :class:`HostSpeed`.
CALIBRATION_NOMINAL_S = 0.020


def calibration_loop() -> int:
    """A fixed piece of work of the benchmark's own, never of the program.

    Interpreted dict updates and small-tuple building, the kinds of work the
    program's route compile and event loop are made of, so a host that
    slows those down slows this loop down about as much.
    """
    table: Dict[int, int] = {}
    for i in range(30000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    ids = list(range(256))
    rows = [tuple(ids[(s + j) & 255] for j in range(6)) for s in range(16000)]
    return len(table) + len(rows)


class HostSpeed:
    """Times of the calibration loop, taken beside the timed work.

    The host the benchmark runs on changes speed for minutes at a time (by
    up to 2x on the 2-vCPU VM it was tuned on) and every kind of work slows
    down together.  So a timed piece of work is divided by the loop's time
    measured beside it (right before and after it, or the run's median), and
    multiplied by the loop's nominal time: what the work would have taken on
    the quiet host.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self.samples: List[float] = []
        self.cpus = sorted(os.sched_getaffinity(0)) if every_cpu else []

    @staticmethod
    def _time_loop() -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            calibration_loop()
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()

    def sample(self) -> float:
        """Time the loop once, or with ``every_cpu`` once pinned to each CPU.

        Each vCPU of the tuning VM has slow phases of its own, hardly
        correlated with the other's, so work spread over several processes
        is paced by the mean of the CPUs' loop times.
        """
        if not self.cpus:
            elapsed = self._time_loop()
        else:
            allowed = os.sched_getaffinity(0)
            times = []
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    times.append(self._time_loop())
            finally:
                os.sched_setaffinity(0, allowed)
            elapsed = statistics.fmean(times)
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def normalise(seconds: float, beside: Sequence[float]) -> float:
        """``seconds`` at nominal host speed, given the loop times beside it."""
        return seconds * CALIBRATION_NOMINAL_S / statistics.fmean(beside)

    def normalise_by_run(self, seconds: float) -> float:
        """``seconds`` at nominal host speed, given the run's median loop time."""
        return seconds * CALIBRATION_NOMINAL_S / statistics.median(self.samples)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
