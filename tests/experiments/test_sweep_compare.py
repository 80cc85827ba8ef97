"""Tests of model-versus-simulation sweeps and the agreement metrics."""

import math

import numpy as np
import pytest

from repro import api
from repro.experiments.compare import (
    compare_runset,
    curves_match_in_shape,
    engine_latencies,
    relative_difference,
    saturation_shift,
)
from repro.experiments.report import curve_table
from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.topology.multicluster import MultiClusterSpec
from repro.utils import ValidationError

TINY = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")
FAST = SimulationConfig(measured_messages=800, warmup_messages=80, drain_messages=80, seed=2)


def sweep(offered_traffic, *, simulate=True, sim=FAST):
    scenario = api.Scenario(
        system=TINY, message=MessageSpec(32, 256), offered_traffic=offered_traffic, sim=sim
    )
    return api.run(scenario, engines=("model", "sim") if simulate else ("model",))


@pytest.fixture(scope="module")
def simulated_sweep():
    return sweep([2e-4, 6e-4, 1e-3])


class TestLatencySweep:
    def test_model_only_sweep(self):
        runset = sweep(np.linspace(1e-4, 1e-3, 4), simulate=False)
        assert len(runset.records) == 4
        assert runset.engines == ("model",)
        assert all(math.isnan(latency) for latency in engine_latencies(runset, "sim"))
        model = runset.curve("model")
        assert (np.diff(model[np.isfinite(model)]) >= 0).all()

    def test_sweep_with_simulation(self, simulated_sweep):
        assert simulated_sweep.engines == ("model", "sim")
        assert np.isfinite(simulated_sweep.curve("sim")).all()
        first = simulated_sweep.series("sim")[0].simulation
        assert first.measured_messages == FAST.measured_messages

    def test_relative_error_defined_in_steady_state(self, simulated_sweep):
        errors = relative_difference(simulated_sweep, "sim", "model")
        steady = [
            error
            for error, model in zip(errors, simulated_sweep.curve("model"))
            if not math.isinf(model)
        ]
        assert steady and all(not math.isnan(error) for error in steady)
        assert max(abs(error) for error in steady) < 0.5

    def test_relative_difference_is_the_variant_against_the_reference(
        self, simulated_sweep
    ):
        model = simulated_sweep.curve("model")
        simulated = simulated_sweep.curve("sim")
        expected = tuple((model - simulated) / simulated)
        assert relative_difference(simulated_sweep, "sim", "model") == expected
        # A missing engine compares nothing.
        assert all(
            math.isnan(value)
            for value in relative_difference(simulated_sweep, "sim", "absent")
        )

    def test_saturation_point_detection(self):
        runset = sweep([1e-4, 2e-2, 5e-2], simulate=False)
        assert [math.isinf(latency) for latency in runset.curve("model")] == [
            False,
            True,
            True,
        ]
        assert "saturated" in curve_table(runset).to_text()

    def test_never_saturating_sweep_reports_inf(self, simulated_sweep):
        assert compare_runset(simulated_sweep).model_saturation == math.inf

    def test_invalid_traffic_rejected(self):
        with pytest.raises(ValidationError):
            sweep([], simulate=False)
        with pytest.raises(ValidationError):
            sweep([0.0], simulate=False)

    def test_describe_mentions_spec_and_message(self, simulated_sweep):
        text = compare_runset(simulated_sweep).sweep_name
        assert "tiny" in text and "M=32" in text
        assert curve_table(simulated_sweep).title.endswith(text)


class TestAgreement:
    def test_agreement_report_fields(self, simulated_sweep):
        report = compare_runset(simulated_sweep)
        assert report.compared_points >= 1
        assert report.mean_relative_error <= report.max_relative_error
        assert report.agrees_in_steady_state

    def test_agreement_requires_simulation(self):
        runset = sweep([1e-4], simulate=False)
        with pytest.raises(ValidationError):
            compare_runset(runset)

    def test_model_saturation_is_the_first_saturated_load(self):
        runset = sweep([2e-4, 2e-2], sim=SimulationConfig(
            measured_messages=200, warmup_messages=20, drain_messages=20, seed=2
        ))
        report = compare_runset(runset)
        assert report.model_saturation == pytest.approx(2e-2)
        assert report.compared_points == 1

    def test_saturation_shift(self, simulated_sweep):
        report = compare_runset(simulated_sweep)
        shift = saturation_shift(report)
        # Either both saturation estimates are inside the sweep (finite ratio)
        # or at least one lies beyond it (nan).
        assert math.isnan(shift) or shift > 0

    def test_curves_match_in_shape(self, simulated_sweep):
        ok, reason = curves_match_in_shape(simulated_sweep, tolerance=0.5)
        assert ok, reason

    def test_shape_check_needs_two_steady_points(self):
        runset = sweep([1e-2], simulate=False)
        ok, reason = curves_match_in_shape(runset)
        assert not ok
        assert "steady-state" in reason


@pytest.fixture(scope="module")
def complete_and_partial():
    """heterogeneous at 3 points, and the same run set without its
    λ=8e-4 model record, as ``collect(strict=False)`` returns it when that
    task failed."""
    scenario = api.scenario("heterogeneous", points=3, sim=api.simulation_budget("quick", 0))
    complete = api.run(scenario)
    missing = scenario.offered_traffic[1]
    assert missing == pytest.approx(8e-4)
    partial = api.RunSet(
        scenario,
        tuple(
            record
            for record in complete.records
            if not (record.engine == "model" and record.lambda_g == missing)
        ),
    )
    return complete, partial


class TestPartialRunSet:
    """Records are matched to the load grid by ``lambda_g``, never by position."""

    def test_table_rows_keep_their_own_loads(self, complete_and_partial):
        complete, partial = complete_and_partial
        full_rows = curve_table(complete).rows
        rows = curve_table(partial).rows
        assert len(rows) == len(full_rows) == 3
        assert rows[0] == full_rows[0]
        assert rows[2] == full_rows[2]
        offered, model, simulated, error = rows[1]
        assert (offered, simulated) == (full_rows[1][0], full_rows[1][2])
        assert (model, error) == ("-", "-")

    def test_agreement_compares_only_loads_with_both_records(self, complete_and_partial):
        complete, partial = complete_and_partial
        errors = relative_difference(complete, "sim", "model")
        assert not any(math.isnan(error) for error in errors)
        report = compare_runset(partial)
        kept = [abs(errors[0]), abs(errors[2])]
        assert report.compared_points == 2
        assert report.mean_relative_error == sum(kept) / 2
        assert report.max_relative_error == max(kept)
        assert engine_latencies(partial, "model")[0] == engine_latencies(complete, "model")[0]
        assert math.isnan(engine_latencies(partial, "model")[1])

    def test_blowup_is_read_at_the_records_own_load(self):
        scenario = api.Scenario(
            system=TINY, message=MessageSpec(32, 256), offered_traffic=(1e-4, 2e-4, 3e-4)
        )
        records = (
            api.RunRecord(engine="sim", lambda_g=1e-4, latency=10.0, saturated=False),
            api.RunRecord(engine="sim", lambda_g=3e-4, latency=100.0, saturated=False),
        )
        report = compare_runset(api.RunSet(scenario, records))
        assert report.simulation_blowup == 3e-4
        assert report.compared_points == 0

