"""Tests of the declarative Scenario: validation, registry, JSON round trip."""

import dataclasses

import pytest

from repro import api
from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.topology.multicluster import MultiClusterSpec
from repro.utils.validation import ValidationError

TINY = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")
FAST = SimulationConfig(measured_messages=400, warmup_messages=40, drain_messages=40, seed=3)


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


class TestScenarioValidation:
    def test_offered_traffic_coerced_to_float_tuple(self):
        scenario = tiny_scenario(offered_traffic=[1e-4, 2e-4])
        assert scenario.offered_traffic == (1e-4, 2e-4)
        assert all(isinstance(v, float) for v in scenario.offered_traffic)

    def test_non_positive_traffic_rejected(self):
        with pytest.raises(ValidationError):
            tiny_scenario(offered_traffic=(0.0,))
        with pytest.raises(ValidationError):
            tiny_scenario(offered_traffic=(-1e-4,))

    def test_bad_variance_approximation_rejected(self):
        with pytest.raises(ValidationError):
            tiny_scenario(variance_approximation="nope")

    def test_bad_pattern_kind_rejected(self):
        with pytest.raises(ValidationError):
            api.PatternSpec(kind="nope")

    def test_load_grid_excludes_zero(self):
        grid = api.Scenario.load_grid(1e-3, 4)
        assert len(grid) == 4
        assert grid[0] > 0
        assert grid[-1] == pytest.approx(1e-3)

    def test_with_points_resamples_grid(self):
        scenario = tiny_scenario().with_points(6)
        assert len(scenario.offered_traffic) == 6
        assert max(scenario.offered_traffic) == pytest.approx(1e-3)

    def test_with_seed_changes_only_the_seed(self):
        scenario = tiny_scenario().with_seed(99)
        assert scenario.sim.seed == 99
        assert scenario.sim.measured_messages == FAST.measured_messages

    @pytest.mark.parametrize(
        "seed", [1.5, 3.0, -1, "3", True], ids=["1.5", "3.0", "-1", "'3'", "True"]
    )
    def test_bad_seed_refused_when_the_scenario_is_built(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            api.scenario("heterogeneous", points=2, seed=seed)

    def test_with_seed_refuses_a_bad_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            tiny_scenario().with_seed(1.5)


class TestScenarioJsonRoundTrip:
    def test_dict_round_trip_is_identity(self):
        scenario = tiny_scenario()
        assert api.Scenario.from_dict(scenario.to_dict()) == scenario

    def test_file_round_trip_is_identity(self, tmp_path):
        scenario = tiny_scenario(
            pattern=api.PatternSpec("hotspot", {"hot_cluster": 0, "fraction": 0.2}),
            variance_approximation="zero",
        )
        path = scenario.to_json(tmp_path / "scenario.json")
        assert api.Scenario.from_json(path) == scenario

    def test_round_trip_preserves_run_results(self, tmp_path):
        """Serialize -> load -> run gives identical results (the API contract)."""
        scenario = tiny_scenario(offered_traffic=(3e-4, 9e-4))
        loaded = api.Scenario.from_json(scenario.to_json(tmp_path / "s.json"))
        original = api.run(scenario, engines=("model", "sim"))
        replayed = api.run(loaded, engines=("model", "sim"))
        for first, second in zip(original.records, replayed.records):
            assert first.engine == second.engine
            assert first.lambda_g == second.lambda_g
            assert first.latency == second.latency
        sim_first = original.series("sim")[0].simulation
        sim_second = replayed.series("sim")[0].simulation
        assert sim_first.mean_latency == sim_second.mean_latency
        assert sim_first.std_latency == sim_second.std_latency
        assert sim_first.seed == sim_second.seed == FAST.seed

    def test_registry_scenarios_round_trip(self, tmp_path):
        for name in api.scenario_names():
            scenario = api.scenario(name, points=3)
            path = scenario.to_json(tmp_path / "reg.json")
            assert api.Scenario.from_json(path) == scenario


class TestScenarioRegistry:
    def test_builtin_names_registered(self):
        names = api.scenario_names()
        for expected in ("table1/1120", "table1/544", "fig3", "fig4", "hotspot", "heterogeneous"):
            assert expected in names

    def test_fig3_uses_the_table1_1120_system(self):
        from repro.experiments.configs import table1_system

        scenario = api.scenario("fig3", points=5)
        assert scenario.system == table1_system(1120)
        assert len(scenario.offered_traffic) == 5

    def test_hotspot_carries_a_hotspot_pattern(self):
        scenario = api.scenario("hotspot", points=2)
        assert scenario.pattern.kind == "hotspot"
        assert scenario.pattern.build().fraction == pytest.approx(0.1)

    def test_budget_and_seed_are_applied(self):
        scenario = api.scenario("fig4", points=2, budget="paper", seed=7)
        assert scenario.sim.measured_messages == 100_000
        assert scenario.sim.seed == 7

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            api.scenario("no-such-scenario")

    def test_unknown_budget_rejected(self):
        with pytest.raises(ValidationError):
            api.simulation_budget("huge")

    def test_register_scenario_round_trips_through_lookup(self):
        def factory(points, sim):
            return tiny_scenario(sim=sim).with_points(points)

        api.register_scenario("test/tiny", factory)
        try:
            scenario = api.scenario("test/tiny", points=2)
            assert len(scenario.offered_traffic) == 2
        finally:
            api._SCENARIOS.pop("test/tiny")
