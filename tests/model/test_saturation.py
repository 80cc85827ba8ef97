"""Tests of saturation-point location and utilisation diagnostics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.model import (
    MessageSpec,
    MultiClusterLatencyModel,
    saturation_point,
    utilisation_summary,
)
from repro.model.saturation import bottleneck
from repro.utils import ValidationError


class TestSaturationPoint:
    def test_model_is_stable_just_below_and_saturated_just_above(self, table1_small_spec):
        model = MultiClusterLatencyModel(table1_small_spec, MessageSpec(32, 256))
        point = saturation_point(model, upper_bound=1e-3)
        assert math.isfinite(model.mean_latency(point * 0.98))
        assert math.isinf(model.mean_latency(point * 1.02))

    def test_upper_bound_grows_automatically(self, tiny_spec):
        model = MultiClusterLatencyModel(tiny_spec)
        # Deliberately tiny initial bound: the bracketing loop must extend it.
        point = saturation_point(model, upper_bound=1e-6)
        assert point > 1e-6
        assert math.isinf(model.mean_latency(point * 1.05))

    def test_doubling_message_length_halves_the_saturation_point(self, table1_small_spec):
        short = MultiClusterLatencyModel(table1_small_spec, MessageSpec(32, 256))
        long = MultiClusterLatencyModel(table1_small_spec, MessageSpec(64, 256))
        ratio = saturation_point(long, upper_bound=1e-3) / saturation_point(
            short, upper_bound=1e-3
        )
        assert ratio == pytest.approx(0.5, rel=0.15)

    def test_doubling_flit_size_roughly_halves_the_saturation_point(self, table1_small_spec):
        small = MultiClusterLatencyModel(table1_small_spec, MessageSpec(32, 256))
        large = MultiClusterLatencyModel(table1_small_spec, MessageSpec(32, 512))
        ratio = saturation_point(large, upper_bound=1e-3) / saturation_point(
            small, upper_bound=1e-3
        )
        assert ratio == pytest.approx(0.5, rel=0.2)

    def test_invalid_arguments_rejected(self, tiny_spec):
        model = MultiClusterLatencyModel(tiny_spec)
        with pytest.raises(ValidationError):
            saturation_point(model, upper_bound=0.0)
        with pytest.raises(ValidationError):
            saturation_point(model, upper_bound=1e-3, tolerance=0.0)


class TestDeepOverload:
    """Far past the knee the model reads saturated (inf); it never raises.

    On the N=544 organisation (fig4, and hotspot's model) the backward
    recursion's waits overflow to inf from about 24x the saturation load.
    """

    @pytest.fixture(scope="class", params=["fig4", "hotspot"])
    def n544_model(self, request):
        from repro import api

        scenario = api.scenario(request.param, points=3)
        return api.AnalyticalEngine().model_for(scenario)

    @pytest.mark.parametrize("lambda_g", [0.0117, 0.02, 0.1, 1.0])
    def test_mean_latency_is_inf(self, n544_model, lambda_g):
        assert math.isinf(n544_model.mean_latency(lambda_g))

    @given(exponent=st.floats(min_value=math.log10(5e-4), max_value=6.0))
    @settings(max_examples=40, deadline=None)
    def test_every_load_past_the_knee_reads_inf(self, n544_model, exponent):
        assert math.isinf(n544_model.mean_latency(10.0**exponent))

    def test_default_bracket_finds_the_saturation_point(self, n544_model):
        # The default upper bound (1.0) is deep in overload; the search must
        # agree with a bracket that starts just past the knee.
        assert saturation_point(n544_model) == pytest.approx(
            saturation_point(n544_model, upper_bound=2e-3), abs=1e-9
        )
        assert saturation_point(n544_model) == pytest.approx(4.8815e-4, rel=1e-4)

    def test_overloaded_point_is_a_saturated_record(self):
        from repro import api

        scenario = api.scenario("fig4", points=3).with_traffic((0.02,))
        runset = api.run(scenario, engines=("model",), store=None)
        (record,) = runset.records
        assert record.saturated is True
        assert math.isinf(record.latency)


class TestUtilisationDiagnostics:
    def test_summary_covers_every_cluster(self, tiny_spec):
        model = MultiClusterLatencyModel(tiny_spec)
        summary = utilisation_summary(model, 1e-4)
        assert len(summary) == 2 * tiny_spec.num_clusters
        assert all(value >= 0 for value in summary.values())

    def test_utilisations_grow_with_load(self, tiny_spec):
        model = MultiClusterLatencyModel(tiny_spec)
        low = utilisation_summary(model, 1e-5)
        high = utilisation_summary(model, 1e-3)
        assert max(high.values()) > max(low.values())

    def test_bottleneck_is_an_ecn1_queue_for_table1(self, table1_large_spec):
        """In the paper's organisations the external path saturates first."""
        model = MultiClusterLatencyModel(table1_large_spec, MessageSpec(32, 256))
        name = bottleneck(model, 1e-4)
        assert "ecn1" in name


class TestSilentOverflow:
    """Far past the knee the journey products overflow a double.  The model
    carries them as Python floats, which turn inf silently, so it reads
    saturated without a numpy overflow warning."""

    @pytest.mark.parametrize(
        "name,lambda_g",
        [("fig4", 62.75), ("fig4", 63.0), ("fig4", 63.5), ("fig3", 2.35)],
    )
    def test_overflow_reads_inf_without_a_warning(self, name, lambda_g):
        import warnings

        from repro import api

        model = api.AnalyticalEngine().model_for(api.scenario(name, points=3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isinf(model.mean_latency(lambda_g))
