#!/usr/bin/env python
"""Diff a fresh ``BENCH_simulator.json`` against the committed artifact.

The benchmarks smoke job regenerates the perf artifact on every push; this
script fails the job when any scenario's ``messages_per_second`` fell more
than the tolerated fraction below the committed trajectory point, so a
kernel regression cannot land silently.  It additionally gates the
vectorized kernel itself: the fresh payload's ``kernels`` rungs (matched
budget, interleaved reps) must show ``kernel="vectorized"`` beating the
generator specification kernel by at least :data:`KERNEL_GATE_MIN` on
:data:`KERNEL_GATE_SCENARIO` — the rung pair is measured on the same
machine seconds apart, so the ratio is robust where absolutes are not.

Smoke payloads run a few hundred messages on whatever runner CI hands out,
so the default tolerance is deliberately wide (30%): it catches "the hot
path got slower by a constant factor", not micro-noise.  Run locally as::

    PYTHONPATH=src python benchmarks/diff_bench.py \
        --fresh BENCH_fresh.json --committed BENCH_simulator.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 0.30

#: The kernel rung the vectorized-speedup gate reads (the paper's 1120-node
#: fig3 organisation — the large-topology case the vectorized core exists
#: for) and the minimum speedup over the generator specification kernel it
#: demands: about 0.6 of the fig3 rung with the native event core (median
#: 82.8x over nine runs, 77-102x, on the machine that recorded the
#: artifact), the margin the gate has always kept.  Only ever raised.
KERNEL_GATE_SCENARIO = "fig3"
KERNEL_GATE_MIN = 49.0


def load_payload(path: Path) -> dict:
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or "scenarios" not in data:
        raise SystemExit(f"error: {path} is not a benchmark payload")
    return data


def check_comparable(fresh: dict, committed: dict) -> None:
    """Refuse to compare payloads measured under different methodologies.

    A smoke payload runs a few hundred messages, so fixed per-run setup
    dominates and its messages/sec is structurally below a full-budget
    run — comparing across budgets would always "regress".
    """
    for field in ("budget", "points", "smoke"):
        fresh_value, committed_value = fresh.get(field), committed.get(field)
        if fresh_value != committed_value:
            raise SystemExit(
                f"error: payloads are not comparable: {field}={fresh_value!r} in the "
                f"fresh payload vs {committed_value!r} in the committed artifact; "
                "regenerate the fresh payload at the committed budget"
            )


def diff_payloads(fresh: dict, committed: dict, tolerance: float) -> list[str]:
    """Human-readable regression lines (empty when everything is within bounds)."""
    regressions: list[str] = []
    for name, reference in committed["scenarios"].items():
        current = fresh["scenarios"].get(name)
        if current is None:
            regressions.append(f"{name}: missing from the fresh payload")
            continue
        before = reference.get("messages_per_second")
        after = current.get("messages_per_second")
        if not before or not after:
            continue
        floor = before * (1.0 - tolerance)
        if after < floor:
            regressions.append(
                f"{name}: {after:.1f} msg/s is {1 - after / before:.0%} below the "
                f"committed {before:.1f} msg/s (tolerance {tolerance:.0%})"
            )
    return regressions


def check_kernel_gate(
    fresh: dict,
    scenario: str = KERNEL_GATE_SCENARIO,
    minimum: float = KERNEL_GATE_MIN,
) -> list[str]:
    """The vectorized-kernel speedup gate over the fresh payload's rungs.

    Reads the ``kernels`` section ``run_bench`` always records: the
    generator and vectorized kernels at matched budget.  Payloads that do not
    cover the gate scenario (e.g. a partial local run) are skipped; a
    payload that covers it but lacks the vectorized rung, or whose rung
    falls below the minimum, fails.
    """
    if scenario not in fresh.get("scenarios", {}):
        return []
    rungs = fresh.get("kernels") or []
    vectorized = next(
        (
            rung
            for rung in rungs
            if rung.get("scenario") == scenario and rung.get("kernel") == "vectorized"
        ),
        None,
    )
    if vectorized is None:
        return [f"{scenario}: fresh payload has no vectorized kernel rung"]
    speedup = vectorized.get("speedup") or 0.0
    if speedup < minimum:
        return [
            f"{scenario}: vectorized kernel is only {speedup:.2f}x the "
            f"generator kernel (gate {minimum:.1f}x at matched budget)"
        ]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", type=Path, required=True, help="freshly generated payload")
    parser.add_argument(
        "--committed", type=Path, required=True, help="artifact committed in the repo"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional messages/sec drop before failing (default 0.30)",
    )
    args = parser.parse_args(argv)
    fresh = load_payload(args.fresh)
    committed = load_payload(args.committed)
    check_comparable(fresh, committed)
    regressions = diff_payloads(fresh, committed, args.tolerance)
    regressions += check_kernel_gate(fresh)
    for name, entry in fresh["scenarios"].items():
        reference = committed["scenarios"].get(name, {})
        before = reference.get("messages_per_second")
        ratio = f" ({entry['messages_per_second'] / before:.2f}x committed)" if before else ""
        print(f"{name:<14} {entry['messages_per_second']:>10.1f} msg/s{ratio}")
    for rung in fresh.get("kernels", []):
        if rung.get("kernel") != "vectorized":
            continue
        print(
            f"{rung['scenario']:<14} vectorized {rung['speedup']:>5.2f}x "
            f"vs generator at matched budget"
        )
    if regressions:
        print("\nbenchmark gate failures:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nno messages/sec regression beyond tolerance; kernel gate holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
