"""Self-tests of the benchmark: a smoke-size run of every workload.

Usage: ``python3 perfbench/selftest.py`` from anywhere; about two minutes.

Each workload runs for one second twice: untraced on seed 1 and traced on
seed 2, so the second run is also the held-out-seed check.  Every run must:

* exit 0 and end with the result object, with exactly the contract's keys;
* be correct, with nothing failed (the golden replay ran before it);
* report exactly the metrics ``BENCHMARK.json`` declares, each with its
  unit, every end-to-end value positive;
* leave behind no process of the program (server or pool worker), no
  shared-memory segment of the worker daemon, and no temporary store.

Exits 0 when every check holds and prints each failed check otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Set

from common import HERE, OUT, ROOT

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SHM_PREFIX = "repro_shm"
RUN_TIMEOUT_S = 180


def program_processes() -> Set[int]:
    """Live processes running the program or one of its pool workers."""
    pids = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if b"repro" in cmdline or b"multiprocessing" in cmdline:
            pids.add(int(entry.name))
    return pids


def shm_segments() -> Set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith(SHM_PREFIX)}


def check_run(workload: str, seed: int, trace: int, declared: Dict) -> List[str]:
    where = f"{workload} seed={seed} trace={trace}"
    processes, segments = program_processes(), shm_segments()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    errors = []
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.splitlines()[-1])
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(
            f"{where}: correct={result['correct']} failed={result['failed']} "
            f"attempted={result['attempted']}\n{done.stderr[-2000:]}"
        )
    specs = declared["per_layer" if trace else "end_to_end"]
    expected = {spec["name"]: spec["unit"] for spec in specs}
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if reported != expected:
        errors.append(f"{where}: metrics/units {reported} != declared {expected}")
    if not trace:
        errors += [
            f"{where}: {name} = {metric['value']}"
            for name, metric in result["metrics"].items()
            if not metric["value"] > 0
        ]
    leftover = program_processes() - processes
    if leftover:
        errors.append(f"{where}: processes left running: {sorted(leftover)}")
    leaked = shm_segments() - segments
    if leaked:
        errors.append(f"{where}: shared-memory segments left: {sorted(leaked)}")
    temporary = sorted(path.name for path in OUT.glob("tmp-*"))
    if temporary:
        errors.append(f"{where}: temporary directories left: {temporary}")
    return errors


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (spec["name"] for spec in declared["workloads"]):
        for seed, trace in ((1, 0), (2, 1)):
            found = check_run(workload, seed, trace, declared)
            print(f"{workload} seed={seed} trace={trace}: {'ok' if not found else 'FAILED'}")
            errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
