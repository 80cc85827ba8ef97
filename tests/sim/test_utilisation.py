"""Tests of channel-utilisation accounting (flat channel state, simulator)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.des import Environment
from repro.model import MessageSpec
from repro.sim import MultiClusterSimulator, SimulationConfig, statistics
from repro.sim.network import FlatChannels
from repro.sim.statistics import channel_utilisation, summarise
from repro.topology import MultiClusterSpec
from repro.topology.compile import compile_system

TINY = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")
FAST = SimulationConfig(measured_messages=600, warmup_messages=60, drain_messages=60, seed=1)


class TestChannelUtilisationReport:
    """``channel_utilisation`` over one compiled system's flat slot state."""

    def _report(self, hold, elapsed):
        core = compile_system(TINY)
        env = Environment()
        channels = FlatChannels(env, core.total_slots)
        touch_order = np.zeros(0, dtype=np.int32)
        if hold:
            slot = core.icn1_offsets[0]
            touch_order = np.array([slot], dtype=np.int32)

            def user():
                grant = channels.acquire(slot)
                yield grant
                yield env.timeout(hold)
                channels.release(slot, grant)

            env.process(user())
            env.run()
        return channel_utilisation(
            core,
            np.asarray(core.pool_index_list),
            channels.busy_time,
            channels.total_grants,
            touch_order,
            elapsed,
        )

    def test_idle_run_reports_nothing(self):
        assert self._report(0.0, 10.0) == {}
        assert self._report(4.0, 0.0) == {}

    def test_single_busy_channel(self):
        assert self._report(4.0, 10.0) == {"ICN1": (0.4, 0.4)}


class TestSimulatorUtilisation:
    @pytest.fixture(scope="class")
    def result(self):
        simulator = MultiClusterSimulator(TINY, MessageSpec(32, 256), config=FAST)
        return simulator.run(6e-4)

    def test_all_networks_reported(self, result):
        assert {"ICN1", "ECN1", "ICN2", "concentrators"} <= set(result.channel_utilisation)

    def test_utilisations_are_fractions(self, result):
        for mean, peak in result.channel_utilisation.values():
            assert 0.0 <= mean <= peak <= 1.0

    def test_bottleneck_named(self, result):
        assert result.bottleneck() in result.channel_utilisation

    def test_utilisation_grows_with_load(self):
        simulator = MultiClusterSimulator(TINY, MessageSpec(32, 256), config=FAST)
        low = simulator.run(1e-4).channel_utilisation
        high = simulator.run(1.2e-3).channel_utilisation
        assert high["ECN1"][1] > low["ECN1"][1]
        assert high["concentrators"][1] > low["concentrators"][1]

    def test_bottleneck_is_external_path_under_uniform_traffic(self, result):
        """Uniform traffic loads the ECN1/ICN2/concentrator side, not the ICN1."""
        utilisation = result.channel_utilisation
        assert utilisation["ICN1"][1] < max(
            utilisation["ECN1"][1], utilisation["ICN2"][1], utilisation["concentrators"][1]
        )

    def test_bottleneck_without_data_is_none(self):
        core = compile_system(TINY)
        slots = core.total_slots
        empty = summarise(
            statistics.RunOutcome(
                *(np.zeros(0) for _ in range(5)),
                np.zeros(slots),
                np.zeros(slots, dtype=np.int64),
                np.zeros(0, dtype=np.int32),
                0.0,
                0,
                False,
            ),
            core,
            np.asarray(core.pool_index_list),
            lambda_g=1e-4,
        )
        assert empty.bottleneck() is None


def _compensated_sum(values, start=0):
    """The builtin ``sum`` of Python 3.12+ over floats (gh-100425).

    Integers add exactly until the first float; from there each float is
    added with Neumaier's compensation, and the compensation is added once
    at the end when it is finite and non-zero.
    """
    values = iter(values)
    total = start
    for value in values:
        total = total + value
        if isinstance(total, float):
            break
    compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


GOLDEN_SIM = SimulationConfig(
    measured_messages=600, warmup_messages=60, drain_messages=60, seed=11
)


class TestUtilisationDoesNotDependOnThePythonVersion:
    def test_the_emulation_compensates_like_python_312(self):
        assert _compensated_sum([0.1] * 10 + [1e16, 1.0, -1e16]) == 2.0
        assert _compensated_sum([1, 2, 3]) == 6

    @pytest.mark.parametrize("fixture", ["golden_seed.json", "golden_seed_zoo.json"])
    def test_golden_utilisation_survives_a_compensated_sum(self, fixture, monkeypatch):
        """Every pinned utilisation value, with 3.12's ``sum`` shadowed in."""
        monkeypatch.setattr(statistics, "sum", _compensated_sum, raising=False)
        golden = json.loads(Path(__file__).with_name(fixture).read_text())
        for name, entries in sorted(golden.items()):
            scenario = api.scenario(name, points=4, sim=GOLDEN_SIM)
            for expected, index in zip(entries, (0, 2)):
                lambda_g = scenario.offered_traffic[index]
                result = api.SimulationEngine().evaluate(scenario, lambda_g).simulation
                utilisation = {
                    key: [mean.hex(), peak.hex()]
                    for key, (mean, peak) in result.channel_utilisation.items()
                }
                assert utilisation == expected["channel_utilisation"], (name, index)
