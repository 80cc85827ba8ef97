"""The repository's benchmark: one command for every workload.

Usage::

    python3 perfbench/run.py --workload {cold_fig3,steady_mix,serve_mix} \\
        --seed N --seconds S --trace {0,1}

The program runs from ``src/`` of the checkout (no build step).  Before
timing anything the committed golden-seed points are replayed bit for bit
(``golden.py``); any mismatch aborts the run without a result.  The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, and
the spans are written to ``.perfbench/spans-<workload>-seed<N>.jsonl``.
A per-layer metric a workload does not exercise reads 0.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

from common import HERE, OUT, ROOT, SRC, run_program

WORKLOADS = ("cold_fig3", "steady_mix", "serve_mix")
GOLDEN_TIMEOUT_S = 150


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def run_workload(name: str, seed: int, seconds: float, trace: bool, tracer, workdir: Path) -> dict:
    if name == "serve_mix":
        import serve_workload

        return serve_workload.run(seed, seconds, trace, tracer, workdir)
    import sim_workloads

    workload = sim_workloads.ColdFig3 if name == "cold_fig3" else sim_workloads.SteadyMix
    return sim_workloads.run(workload, seed, seconds, trace, tracer, workdir)


def main() -> int:
    args = parse_args()
    # Turn SIGTERM into an exit, so a stopped run still stops its server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = declared["per_layer" if args.trace else "end_to_end"]

    golden = run_program([str(HERE / "golden.py")], timeout=GOLDEN_TIMEOUT_S)
    if golden.returncode != 0:
        print(golden.stderr, file=sys.stderr)
        print("error: golden-seed replay failed; nothing timed", file=sys.stderr)
        return 1

    from tracing import Tracer

    tracer = Tracer()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), tracer, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    values = dict(outcome["metrics"])
    attempted, failed = outcome["attempted"], outcome["failed"]
    names = [spec["name"] for spec in metric_specs]
    unknown = sorted(set(values) - set(names) - {"failed_frac"})
    if unknown:
        raise KeyError(f"workload reported undeclared metrics: {unknown}")
    if args.trace:
        values["failed_frac"] = failed / attempted
    else:
        missing = sorted(set(names) - set(values))
        if missing:
            raise KeyError(f"workload did not measure: {missing}")
    metrics = {
        spec["name"]: {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}
        for spec in metric_specs
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
