"""Output check: replay the committed golden-seed points bit for bit.

Runs every point of ``tests/sim/golden_seed.json`` and
``tests/sim/golden_seed_zoo.json`` through :class:`repro.api.SimulationEngine`
at the budget and seed the fixtures were captured with, and compares every
statistic exactly (floats are stored as ``float.hex``).  The fixtures are
only read.

``run.py`` runs this in a child process before timing anything, so the
replay neither warms the workload's caches nor raises its memory
high-water mark.  Usage: ``python3 perfbench/golden.py``; exit status 1
and one line per mismatch on standard error when any statistic differs.
"""

from __future__ import annotations

import json
import sys
from typing import List

from common import ROOT, SRC

FIXTURES = (ROOT / "tests/sim/golden_seed.json", ROOT / "tests/sim/golden_seed_zoo.json")
#: Operating-point indices of a points=4 grid, in fixture order.
GRID_INDICES = (0, 2)
SCALARS = (
    "mean_latency",
    "std_latency",
    "mean_queueing_delay",
    "mean_network_latency",
    "external_fraction",
    "measurement_time",
    "throughput",
)


def mismatches() -> List[str]:
    from repro import api
    from repro.sim.config import SimulationConfig

    budget = SimulationConfig(
        measured_messages=600, warmup_messages=60, drain_messages=60, seed=11
    )
    found: List[str] = []
    for fixture in FIXTURES:
        golden = json.loads(fixture.read_text())
        for name in sorted(golden):
            scenario = api.scenario(name, points=4, sim=budget)
            for index, expected in enumerate(golden[name]):
                where = f"{fixture.name}:{name}[{index}]"
                lambda_g = scenario.offered_traffic[GRID_INDICES[index]]
                if lambda_g.hex() != expected["lambda_g"]:
                    found.append(f"{where}: lambda_g {lambda_g.hex()}")
                    continue
                result = api.SimulationEngine().evaluate(scenario, lambda_g).simulation
                actual = {
                    "measured_messages": result.measured_messages,
                    "saturated": result.saturated,
                    "ci_low": result.confidence_interval[0].hex(),
                    "ci_high": result.confidence_interval[1].hex(),
                    "clusters": [
                        [c.cluster, c.count, c.mean_latency.hex(), c.std_latency.hex()]
                        for c in result.clusters
                    ],
                    "channel_utilisation": {
                        key: [value[0].hex(), value[1].hex()]
                        for key, value in result.channel_utilisation.items()
                    },
                }
                actual.update({key: getattr(result, key).hex() for key in SCALARS})
                for key, value in actual.items():
                    if value != expected[key]:
                        found.append(f"{where}: {key} {value!r} != {expected[key]!r}")
    return found


def main() -> int:
    sys.path.insert(0, str(SRC))
    found = mismatches()
    for line in found:
        print(f"golden mismatch: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
