"""Tests of kernel selection and the generator specification kernel.

The generator path (:func:`~repro.sim.wormhole.compiled_transfer` on the
DES environment) is the executable specification; the vectorized core
must replay it event for event, so every statistic of a run — latencies,
per-cluster tallies, channel utilisation — must be bit-identical between
the two kernels.  The golden-seed regression pins both kernels against the
historical fixture; these tests pin them against each other directly, so a
future edit to one path cannot drift.
"""

import pytest

from repro import api
from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.sim.simulator import KERNEL_MODES, MultiClusterSimulator
from repro.topology.multicluster import MultiClusterSpec
from repro.utils.validation import ValidationError

SPEC = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="kernel-test")
CONFIG = SimulationConfig(
    measured_messages=400, warmup_messages=40, drain_messages=40, seed=23
)
LAMBDA = 6e-4


def _run(kernel, seed=23):
    simulator = MultiClusterSimulator(
        SPEC, MessageSpec(length_flits=16, flit_bytes=128), config=CONFIG, kernel=kernel
    )
    return simulator.run(LAMBDA, seed=seed)


def _statistics_tuple(result):
    return (
        result.mean_latency,
        result.std_latency,
        result.mean_queueing_delay,
        result.mean_network_latency,
        result.external_fraction,
        result.measurement_time,
        result.throughput,
        tuple((c.cluster, c.count, c.mean_latency, c.std_latency) for c in result.clusters),
        tuple(sorted(result.channel_utilisation.items())),
    )


class TestKernelEquivalence:
    def test_generator_and_vectorized_are_bit_identical(self):
        generator = _run("generator")
        vectorized = _run("vectorized")
        assert _statistics_tuple(generator) == _statistics_tuple(vectorized)


class TestKernelSelection:
    def test_default_kernel_is_vectorized(self):
        simulator = MultiClusterSimulator(SPEC, config=CONFIG)
        assert simulator.kernel == "vectorized"
        assert KERNEL_MODES == ("generator", "vectorized")

    def test_env_var_selects_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "generator")
        simulator = MultiClusterSimulator(SPEC, config=CONFIG)
        assert simulator.kernel == "generator"

    def test_explicit_kernel_overrides_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "generator")
        simulator = MultiClusterSimulator(SPEC, config=CONFIG, kernel="vectorized")
        assert simulator.kernel == "vectorized"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValidationError):
            MultiClusterSimulator(SPEC, config=CONFIG, kernel="threads")


class TestKernelDiagnostics:
    def test_empty_journey_rejected(self):
        from repro.des import Environment
        from repro.sim.message import Message
        from repro.sim.network import FlatChannels
        from repro.sim.wormhole import compiled_transfer

        env = Environment()
        message = Message(
            index=0,
            source_cluster=0,
            source_node=0,
            dest_cluster=0,
            dest_node=1,
            length_flits=4,
            created_at=0.0,
        )
        transfer = compiled_transfer(
            env, message, (), FlatChannels(env, 4), [1.0] * 4, 0.0
        )
        with pytest.raises(ValidationError):
            next(transfer)


class TestEngineUsesKernel:
    def test_api_simulation_engine_runs_on_vectorized_kernel(self):
        scenario = api.scenario(
            "heterogeneous",
            points=2,
            sim=SimulationConfig(
                measured_messages=200, warmup_messages=20, drain_messages=20, seed=5
            ),
        )
        engine = api.SimulationEngine()
        assert engine.simulator_for(scenario).kernel == "vectorized"
        record = engine.evaluate(scenario, scenario.offered_traffic[0])
        assert record.simulation.measured_messages == 200
