"""End-to-end tests of the multi-cluster wormhole simulator."""

import numpy as np
import pytest

from repro.model import MessageSpec, MultiClusterLatencyModel
from repro.sim import MultiClusterSimulator, SimulationConfig
from repro.topology import MultiClusterSpec
from repro.utils import ValidationError
from repro.workloads import ClusterLocalTraffic, HotspotTraffic

TINY = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")
FAST = SimulationConfig(measured_messages=600, warmup_messages=60, drain_messages=60, seed=1)


@pytest.fixture(scope="module")
def tiny_run():
    """One shared moderate-load run used by several read-only assertions."""
    simulator = MultiClusterSimulator(TINY, MessageSpec(32, 256), config=FAST)
    return simulator.run(5e-4)


class TestBasicRun:
    def test_measured_message_count(self, tiny_run):
        assert tiny_run.measured_messages == FAST.measured_messages
        assert not tiny_run.saturated

    def test_latency_is_at_least_the_unloaded_transfer_time(self, tiny_run):
        # Any journey needs at least M flit times on its slowest channel.
        assert tiny_run.mean_latency > 32 * 0.276

    def test_components_are_consistent(self, tiny_run):
        assert tiny_run.mean_latency == pytest.approx(
            tiny_run.mean_queueing_delay + tiny_run.mean_network_latency, rel=1e-6
        )
        low, high = tiny_run.confidence_interval
        assert low < tiny_run.mean_latency < high

    def test_external_fraction_matches_uniform_expectation(self, tiny_run):
        # For the tiny system the weighted mean of P_o is about 0.78.
        assert 0.65 < tiny_run.external_fraction < 0.9

    def test_per_cluster_statistics_cover_all_clusters(self, tiny_run):
        assert {stats.cluster for stats in tiny_run.clusters} == {0, 1, 2, 3}
        assert sum(stats.count for stats in tiny_run.clusters) == tiny_run.measured_messages

    def test_throughput_positive(self, tiny_run):
        assert tiny_run.throughput > 0
        assert tiny_run.measurement_time > 0

    def test_wall_clock_recorded(self, tiny_run):
        assert tiny_run.wall_clock_seconds > 0


class TestReproducibility:
    def test_same_seed_same_result(self):
        simulator = MultiClusterSimulator(TINY, MessageSpec(32, 256), config=FAST)
        first = simulator.run(4e-4)
        second = simulator.run(4e-4)
        assert first.mean_latency == second.mean_latency
        assert first.mean_queueing_delay == second.mean_queueing_delay

    def test_different_seed_different_result(self):
        simulator = MultiClusterSimulator(TINY, MessageSpec(32, 256), config=FAST)
        first = simulator.run(4e-4)
        second = simulator.run(4e-4, seed=99)
        assert first.mean_latency != second.mean_latency


class TestLoadBehaviour:
    def test_latency_increases_with_offered_traffic(self):
        simulator = MultiClusterSimulator(TINY, MessageSpec(32, 256), config=FAST)
        low = simulator.run(1e-4)
        high = simulator.run(1.5e-3)
        assert high.mean_latency > low.mean_latency
        assert high.mean_queueing_delay > low.mean_queueing_delay

    def test_longer_messages_increase_latency(self):
        short = MultiClusterSimulator(TINY, MessageSpec(16, 256), config=FAST).run(2e-4)
        long = MultiClusterSimulator(TINY, MessageSpec(32, 256), config=FAST).run(2e-4)
        assert long.mean_latency > short.mean_latency

    def test_invalid_traffic_rejected(self):
        simulator = MultiClusterSimulator(TINY, config=FAST)
        with pytest.raises(ValidationError):
            simulator.run(0.0)


class TestModelAgreement:
    def test_simulation_matches_model_in_steady_state(self):
        """The headline claim of the paper, on a small system and budget."""
        message = MessageSpec(32, 256)
        simulator = MultiClusterSimulator(
            TINY,
            message,
            config=SimulationConfig(
                measured_messages=2500, warmup_messages=250, drain_messages=250, seed=3
            ),
        )
        model = MultiClusterLatencyModel(TINY, message)
        for lambda_g in (1e-4, 4e-4):
            simulated = simulator.run(lambda_g).mean_latency
            predicted = model.mean_latency(lambda_g)
            assert simulated == pytest.approx(predicted, rel=0.15)


class TestPatterns:
    def test_local_traffic_keeps_messages_internal(self):
        simulator = MultiClusterSimulator(
            TINY, MessageSpec(16, 256), config=FAST, pattern=ClusterLocalTraffic(1.0)
        )
        result = simulator.run(3e-4)
        assert result.external_fraction == 0.0

    def test_local_traffic_is_faster_than_uniform(self):
        local = MultiClusterSimulator(
            TINY, MessageSpec(32, 256), config=FAST, pattern=ClusterLocalTraffic(1.0)
        ).run(3e-4)
        uniform = MultiClusterSimulator(TINY, MessageSpec(32, 256), config=FAST).run(3e-4)
        assert local.mean_latency < uniform.mean_latency

    def test_hotspot_traffic_is_slower_than_uniform_at_load(self):
        hotspot = MultiClusterSimulator(
            TINY,
            MessageSpec(32, 256),
            config=FAST,
            pattern=HotspotTraffic(hot_cluster=1, fraction=0.6),
        ).run(9e-4)
        uniform = MultiClusterSimulator(TINY, MessageSpec(32, 256), config=FAST).run(9e-4)
        assert hotspot.mean_latency > uniform.mean_latency
