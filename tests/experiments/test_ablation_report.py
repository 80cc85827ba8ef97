"""Tests of the ablations and the report rendering."""

import math

import pytest

from repro import api
from repro.experiments.ablation import (
    heterogeneity_ablation,
    traffic_pattern_ablation,
    variance_ablation,
)
from repro.experiments.compare import compare_runset, relative_difference
from repro.experiments.figures import run_figure
from repro.experiments.report import (
    agreement_to_text,
    curve_table,
    experiments_markdown,
    figure_to_table,
    save_figure_csvs,
    table1_to_table,
)
from repro.experiments.table1 import table1_rows
from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.topology.multicluster import MultiClusterSpec
from repro.utils import ValidationError
from repro.workloads import ClusterLocalTraffic

TINY = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")
TRAFFIC = [2e-4, 5e-4, 8e-4]


def model_sweep(offered_traffic, **kwargs):
    scenario = api.Scenario(
        system=TINY, message=MessageSpec(32, 256), offered_traffic=offered_traffic, **kwargs
    )
    return api.run(scenario, engines=("model",))


def differences(result):
    """The ablation's variant against its reference, point by point."""
    return relative_difference(result, *result.engines)


class TestHeterogeneityAblation:
    def test_structure(self, table1_large_spec=None):
        result = heterogeneity_ablation(TINY, MessageSpec(32, 256), TRAFFIC)
        assert result.engines == (
            "heterogeneity-aware model",
            "equal-size approximation (n=1)",
        )
        assert len(result.records) == 2 * 3
        assert "heterogeneity" in result.scenario.name
        assert not all(math.isnan(d) for d in differences(result))

    def test_equal_size_approximation_differs_for_heterogeneous_spec(self):
        result = heterogeneity_ablation(TINY, MessageSpec(32, 256), TRAFFIC)
        assert max(abs(d) for d in differences(result) if not math.isnan(d)) > 0.001

    def test_invalid_traffic_rejected(self):
        with pytest.raises(ValidationError):
            heterogeneity_ablation(TINY, MessageSpec(32, 256), [])
        with pytest.raises(ValidationError):
            heterogeneity_ablation(TINY, MessageSpec(32, 256), [0.0])


class TestVarianceAblation:
    def test_zero_variance_never_increases_latency(self):
        result = variance_ablation(TINY, MessageSpec(32, 256), TRAFFIC)
        reference, variant = (result.curve(engine) for engine in result.engines)
        for latency_reference, latency_variant in zip(reference, variant):
            if math.isfinite(latency_reference) and math.isfinite(latency_variant):
                assert latency_variant <= latency_reference + 1e-9

    def test_difference_grows_with_load(self):
        result = variance_ablation(TINY, MessageSpec(32, 256), [1e-4, 1e-3])
        low, high = (abs(d) for d in differences(result))
        assert high >= low


class TestTrafficPatternAblation:
    def test_runs_each_pattern(self):
        config = SimulationConfig(
            measured_messages=400, warmup_messages=40, drain_messages=40, seed=4
        )
        result = traffic_pattern_ablation(
            TINY,
            MessageSpec(16, 256),
            [3e-4],
            {"uniform": None, "local": ClusterLocalTraffic(0.9)},
            simulation_config=config,
        )
        assert result.engines == ("model", "uniform", "local")
        # Local traffic avoids the ECN1/ICN2 path, so it is faster than the
        # uniform-model reference; uniform simulation tracks the reference.
        assert result.curve("local")[0] < result.curve("model")[0]
        assert relative_difference(result, "model", "local")[0] < 0


class TestReportRendering:
    @pytest.fixture(scope="class")
    def fig4_model_only(self):
        return run_figure("fig4", num_points=3, run_simulation=False)

    def test_sweep_table_contains_all_points(self):
        table = curve_table(model_sweep(TRAFFIC))
        assert len(table) == len(TRAFFIC)
        assert "tiny" in table.title

    def test_saturated_points_are_labelled(self):
        text = curve_table(model_sweep([1e-2])).to_text()
        assert "saturated" in text

    def test_missing_series_show_as_dashes(self):
        model_only = curve_table(model_sweep([4e-4])).rows[0]
        assert model_only[2:] == ["-", "-"]
        sim_only = curve_table(
            api.run(
                api.Scenario(system=TINY, offered_traffic=(4e-4,), sim=SimulationConfig(
                    measured_messages=200, warmup_messages=20, drain_messages=20, seed=1
                )),
                engines=("sim",),
            )
        ).rows[0]
        assert sim_only[1] == "-" and sim_only[3] == "-"
        assert sim_only[2] != "-"

    def test_figure_to_table_produces_four_tables(self, fig4_model_only):
        tables = figure_to_table(fig4_model_only)
        assert len(tables) == 4

    def test_table1_rendering(self):
        text = table1_to_table(table1_rows()).to_text()
        assert "1120" in text and "544" in text

    def test_ablation_rendering(self):
        result = variance_ablation(TINY, MessageSpec(32, 256), TRAFFIC)
        reference, variant = result.engines
        text = curve_table(
            result,
            result.engines,
            reference=reference,
            headers=(reference, variant, "difference"),
            title=f"Ablation — {result.scenario.name}",
        ).to_text()
        assert "Draper-Ghosh" in text
        assert "Ablation — variance approximation (tiny)" in text

    def test_agreement_text(self):
        config = SimulationConfig(
            measured_messages=400, warmup_messages=40, drain_messages=40, seed=5
        )
        runset = api.run(
            api.Scenario(
                system=TINY, message=MessageSpec(16, 256), offered_traffic=(3e-4,), sim=config
            )
        )
        text = agreement_to_text(compare_runset(runset))
        assert "relative error" in text

    def test_csv_outputs(self, tmp_path, fig4_model_only):
        path = curve_table(model_sweep(TRAFFIC)).save_csv(tmp_path / "sweep.csv")
        assert path.exists()
        paths = save_figure_csvs(fig4_model_only, tmp_path / "fig4")
        assert [p.name for p in paths] == [
            "fig4_M32_Lm256.csv",
            "fig4_M32_Lm512.csv",
            "fig4_M64_Lm256.csv",
            "fig4_M64_Lm512.csv",
        ]
        assert all(p.exists() for p in paths)

    def test_experiments_markdown_contains_sections(self, fig4_model_only):
        markdown = experiments_markdown(
            table1=table1_rows(),
            figures={"Figure 4 (N=544)": fig4_model_only},
            ablations=[variance_ablation(TINY, MessageSpec(32, 256), TRAFFIC)],
            notes="shape only",
        )
        assert "# Experiments" in markdown
        assert "Table 1" in markdown
        assert "Figure 4" in markdown
        assert "Ablations" in markdown
        assert "shape only" in markdown
