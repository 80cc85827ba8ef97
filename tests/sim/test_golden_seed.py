"""Golden-seed regression: the compiled core reproduces the object path.

The compiled-``NetworkCore`` refactor (integer channel ids, precompiled
route tables, flat-array channel state, slotted events) changes the
*representation* of a simulation run, not its behaviour.  The fixture
``golden_seed.json`` was captured with the pre-refactor object-graph
simulator (``ChannelPool`` + per-message ``Route`` construction) at fixed
seeds; this test replays the same scenarios through the public
:class:`repro.api.SimulationEngine` and asserts every statistic —
including per-cluster tallies and channel-utilisation aggregates — is
**bit-identical** (floats are stored as ``float.hex`` strings).

If a future change to the DES kernel, routing compiler or simulator alters
any of these numbers, it changed simulation semantics and must either be a
deliberate, documented behaviour change (re-capture the fixture in the same
commit and say why) or a bug.
"""

import json
from pathlib import Path

import pytest

from repro import api
from repro.sim.config import SimulationConfig
from repro.sim.simulator import KERNEL_MODES

GOLDEN_PATH = Path(__file__).with_name("golden_seed.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: The exact budget the fixture was captured with.
GOLDEN_SIM = SimulationConfig(
    measured_messages=600, warmup_messages=60, drain_messages=60, seed=11
)

#: Scenario -> evaluated grid indices (points=4 grid; fixture stores entries
#: in this order).
GRID_INDICES = (0, 2)


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
def test_simulation_statistics_are_bit_identical(name, entry_index, kernel, monkeypatch):
    # Every kernel is pinned to the same fixture: the generator path as the
    # executable specification, the vectorized core as the default that
    # must replay it bit for bit.
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


def test_golden_covers_required_scenarios():
    """The acceptance bar: >= 3 registered scenarios incl. heterogeneous."""
    assert "heterogeneous" in GOLDEN
    assert len(GOLDEN) >= 3
    for name in GOLDEN:
        assert name in api.scenario_names()
