"""Tests of the engine protocol, run() fan-out and engine parity."""

import math

import numpy as np
import pytest

from repro import api
from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.topology.multicluster import MultiClusterSpec
from repro.utils.validation import ValidationError

TINY = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")
FAST = SimulationConfig(measured_messages=400, warmup_messages=40, drain_messages=40, seed=3)
PARITY_CONFIG = SimulationConfig(
    measured_messages=2_500, warmup_messages=250, drain_messages=250, seed=9
)


def tiny_scenario(**overrides) -> api.Scenario:
    defaults = dict(
        system=TINY,
        message=MessageSpec(32, 256),
        offered_traffic=(2e-4, 6e-4, 1e-3),
        sim=FAST,
        name="tiny",
    )
    defaults.update(overrides)
    return api.Scenario(**defaults)


class TestEngineResolution:
    def test_names_resolve_to_engines(self):
        engines = api.resolve_engines(("model", "sim"))
        assert [engine.name for engine in engines] == ["model", "sim"]
        assert isinstance(engines[0], api.AnalyticalEngine)
        assert isinstance(engines[1], api.SimulationEngine)

    def test_aliases_resolve(self):
        engines = api.resolve_engines(("analysis", "simulation"))
        assert isinstance(engines[0], api.AnalyticalEngine)
        assert isinstance(engines[1], api.SimulationEngine)

    def test_instances_pass_through(self):
        custom = api.AnalyticalEngine(name="custom")
        assert api.resolve_engines((custom,))[0] is custom

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            api.resolve_engines(("warp-drive",))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            api.resolve_engines(("model", "analysis"))

    def test_empty_engine_list_rejected(self):
        with pytest.raises(ValidationError):
            api.resolve_engines(())

    def test_engines_satisfy_the_protocol(self):
        assert isinstance(api.AnalyticalEngine(), api.Engine)
        assert isinstance(api.SimulationEngine(), api.Engine)


class TestRun:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            api.run(tiny_scenario(offered_traffic=()), engines=("model",))

    def test_records_ordered_engine_major_grid_minor(self):
        runset = api.run(tiny_scenario(), engines=("model", "sim"))
        assert [record.engine for record in runset.records] == ["model"] * 3 + ["sim"] * 3
        for series_name in ("model", "sim"):
            lambdas = [record.lambda_g for record in runset.series(series_name)]
            assert lambdas == list(tiny_scenario().offered_traffic)

    def test_model_records_flag_saturation(self):
        runset = api.run(
            tiny_scenario(offered_traffic=(1e-4, 5e-2)), engines=("model",)
        )
        first, second = runset.series("model")
        assert not first.saturated and math.isfinite(first.latency)
        assert second.saturated and math.isinf(second.latency)

    def test_simulation_records_carry_provenance_metadata(self):
        runset = api.run(tiny_scenario(offered_traffic=(4e-4,)), engines=("sim",))
        record = runset.series("sim")[0]
        assert record.metadata["seed"] == FAST.seed
        assert record.metadata["wall_clock_seconds"] > 0
        assert record.metadata["measured_messages"] == FAST.measured_messages
        assert record.simulation is not None
        assert record.simulation.seed == FAST.seed

    def test_runset_curve_and_record_lookup(self):
        runset = api.run(tiny_scenario(), engines=("model",))
        curve = runset.curve("model")
        assert curve.shape == (3,)
        assert (np.diff(curve) >= 0).all()
        record = runset.record("model", 6e-4)
        assert record.lambda_g == pytest.approx(6e-4)
        with pytest.raises(ValidationError):
            runset.record("model", 123.0)
        with pytest.raises(ValidationError):
            runset.series("sim")

    def test_pattern_spec_reaches_the_simulator(self):
        uniform = api.run(tiny_scenario(offered_traffic=(6e-4,)), engines=("sim",))
        hotspot = api.run(
            tiny_scenario(
                offered_traffic=(6e-4,),
                pattern=api.PatternSpec("hotspot", {"hot_cluster": 1, "fraction": 0.6}),
            ),
            engines=("sim",),
        )
        assert (
            uniform.series("sim")[0].latency != hotspot.series("sim")[0].latency
        )

    def test_parallel_results_identical_to_sequential(self):
        scenario = tiny_scenario(offered_traffic=tuple(api.Scenario.load_grid(1e-3, 4)))
        sequential = api.run(scenario, engines=("model", "sim"))
        parallel = api.run(scenario, engines=("model", "sim"), parallel=True, max_workers=2)
        for seq, par in zip(sequential.records, parallel.records):
            assert seq.engine == par.engine
            assert seq.lambda_g == par.lambda_g
            assert seq.latency == par.latency
            if seq.simulation is not None:
                assert seq.simulation.mean_latency == par.simulation.mean_latency
                assert seq.simulation.std_latency == par.simulation.std_latency
                assert seq.simulation.measured_messages == par.simulation.measured_messages

    def test_total_wall_clock_is_positive_with_simulation(self):
        runset = api.run(tiny_scenario(offered_traffic=(4e-4,)), engines=("sim",))
        assert runset.total_wall_clock_seconds() > 0


class TestEngineParity:
    """AnalyticalEngine and SimulationEngine agree within the paper's band."""

    def test_engines_agree_in_steady_state(self):
        from repro.model.saturation import saturation_point

        scenario = tiny_scenario(sim=PARITY_CONFIG)
        model = api.AnalyticalEngine().model_for(scenario)
        probe = 0.4 * saturation_point(model, upper_bound=5e-3)
        runset = api.run(
            scenario.with_traffic((probe,)), engines=("model", "sim")
        )
        predicted = runset.series("model")[0].latency
        simulated = runset.series("sim")[0].latency
        # 25% mirrors the paper's "good degree of accuracy" claim as asserted
        # by the integration tests on these very small systems.
        assert predicted == pytest.approx(simulated, rel=0.25)

    def test_variance_override_engine_differs_from_reference(self):
        scenario = tiny_scenario(offered_traffic=(1e-3,))
        runset = api.run(
            scenario,
            engines=(
                api.AnalyticalEngine(),
                api.AnalyticalEngine(variance_approximation="zero", name="model/zero"),
            ),
        )
        assert runset.curve("model")[0] != runset.curve("model/zero")[0]

    def test_equal_size_engine_runs_the_approximation(self):
        scenario = tiny_scenario(offered_traffic=(6e-4,))
        runset = api.run(
            scenario, engines=(api.AnalyticalEngine(), api.equal_size_engine())
        )
        assert runset.engines == ("model", "model/equal-size")
        assert math.isfinite(runset.curve("model/equal-size")[0])
