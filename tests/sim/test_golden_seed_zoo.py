"""Golden-seed regression for the topology zoo.

Same discipline as ``test_golden_seed.py``, over the zoo registry
scenarios: the fixture ``golden_seed_zoo.json`` was captured (with a
cross-kernel agreement check at capture time) from the compiled stack, and
every kernel must replay each zoo family bit for bit.  Because a zoo
topology compiles to a single degenerate cluster whose traffic is entirely
intra-cluster, bit-identity across kernels holds by the same construction
as the multicluster fixture — this gate is what pins that construction.
"""

import json
from pathlib import Path

import pytest

from repro import api
from repro.sim.config import SimulationConfig
from repro.sim.simulator import KERNEL_MODES

GOLDEN_PATH = Path(__file__).with_name("golden_seed_zoo.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: Same capture budget as the multicluster fixture.
GOLDEN_SIM = SimulationConfig(
    measured_messages=600, warmup_messages=60, drain_messages=60, seed=11
)

GRID_INDICES = (0, 2)

#: The native loop's ``events_processed`` at every fixture point, pinned as
#: in ``test_golden_seed.py``.
VECTORIZED_EVENTS = {
    "zoo/fattree4": [4896, 4896],
    "zoo/torus": [4050, 4050],
    "zoo/tree": [3666, 3666],
}


def _result_for(name: str, entry_index: int):
    scenario = api.scenario(name, points=4, sim=GOLDEN_SIM)
    lambda_g = scenario.offered_traffic[GRID_INDICES[entry_index]]
    record = api.SimulationEngine().evaluate(scenario, lambda_g)
    return lambda_g, record.simulation


@pytest.mark.parametrize("kernel", KERNEL_MODES)
@pytest.mark.parametrize(
    "name,entry_index",
    [(name, index) for name in sorted(GOLDEN) for index in range(len(GOLDEN[name]))],
)
def test_zoo_statistics_are_bit_identical(name, entry_index, kernel, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
    expected = GOLDEN[name][entry_index]
    lambda_g, result = _result_for(name, entry_index)

    assert lambda_g == float.fromhex(expected["lambda_g"])
    assert result.measured_messages == expected["measured_messages"]
    assert result.saturated == expected["saturated"]
    for field, attr in (
        ("mean_latency", result.mean_latency),
        ("std_latency", result.std_latency),
        ("mean_queueing_delay", result.mean_queueing_delay),
        ("mean_network_latency", result.mean_network_latency),
        ("external_fraction", result.external_fraction),
        ("measurement_time", result.measurement_time),
        ("throughput", result.throughput),
    ):
        assert attr == float.fromhex(expected[field]), field
    assert result.confidence_interval[0] == float.fromhex(expected["ci_low"])
    assert result.confidence_interval[1] == float.fromhex(expected["ci_high"])

    clusters = [
        (c.cluster, c.count, c.mean_latency.hex(), c.std_latency.hex())
        for c in result.clusters
    ]
    assert clusters == [tuple(entry) for entry in expected["clusters"]]

    utilisation = {
        key: [value[0].hex(), value[1].hex()]
        for key, value in result.channel_utilisation.items()
    }
    assert utilisation == expected["channel_utilisation"]
    if kernel == "vectorized":
        assert result.events_processed == VECTORIZED_EVENTS[name][entry_index]


def test_zoo_golden_covers_every_family():
    """One fixture entry per registered zoo family, all registry-resolvable."""
    assert set(GOLDEN) == {"zoo/fattree4", "zoo/tree", "zoo/torus"}
    for name in GOLDEN:
        assert name in api.scenario_names()


def test_zoo_utilisation_reports_single_network_pool():
    """With one degenerate cluster only the 'network' label ever appears."""
    for name, entries in GOLDEN.items():
        for entry in entries:
            assert set(entry["channel_utilisation"]) == {"network"}, name


def test_zoo_never_routes_externally():
    """Every zoo message is intra-cluster: zero external fraction by design."""
    for name, entries in GOLDEN.items():
        for entry in entries:
            assert float.fromhex(entry["external_fraction"]) == 0.0, name
