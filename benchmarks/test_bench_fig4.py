"""Benchmark: regenerate Fig. 4 (N=544) — latency versus offered traffic.

Same structure as the Fig. 3 benchmark, for the smaller Table 1 organisation,
plus the cross-figure comparison the paper's axis ranges imply: the N=544
system sustains roughly twice the per-node offered traffic of the N=1120
system before saturating.
"""

import math

import pytest

from benchmarks.conftest import bench_points, bench_simulation_config
from repro import api
from repro.experiments.compare import compare_runset, curves_match_in_shape
from repro.experiments.configs import FIGURE_SPECS, table1_system
from repro.experiments.figures import panel_scenario
from repro.experiments.report import agreement_to_text, curve_table
from repro.model import MultiClusterLatencyModel, saturation_point
from repro.model.parameters import MessageSpec

PANELS = [
    pytest.param("fig4-M32", 256, id="M32-Lm256"),
    pytest.param("fig4-M32", 512, id="M32-Lm512"),
    pytest.param("fig4-M64", 256, id="M64-Lm256"),
    pytest.param("fig4-M64", 512, id="M64-Lm512"),
]


@pytest.mark.benchmark(group="fig4")
@pytest.mark.parametrize("panel_name,flit_bytes", PANELS)
def test_fig4_series(benchmark, panel_name, flit_bytes):
    panel = FIGURE_SPECS[panel_name]
    scenario = panel_scenario(
        panel,
        MessageSpec(panel.message_length, flit_bytes),
        num_points=bench_points(),
        simulation_config=bench_simulation_config(),
    )

    def run():
        return api.run(scenario, engines=("model", "sim"))

    runset = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(curve_table(runset).to_text())
    report = compare_runset(runset)
    print(agreement_to_text(report))

    # Shape assertions (paper findings), not absolute numbers.  The Lm=512
    # curves saturate within the first half of the figure's traffic axis, so
    # they may contribute a single steady-state point at the bench grid.
    steady = [latency for latency in runset.curve("model") if not math.isinf(latency)]
    if len(steady) >= 2:
        ok, reason = curves_match_in_shape(runset, tolerance=0.35)
        assert ok, reason
    assert report.compared_points >= 1
    assert report.max_relative_error < 0.35
    finite_sim = [latency for latency in runset.curve("sim") if math.isfinite(latency)]
    assert finite_sim[-1] > finite_sim[0], "latency must rise with offered traffic"


@pytest.mark.benchmark(group="fig4")
@pytest.mark.parametrize("message_length,flit_bytes", [(32, 256), (64, 512)], ids=["M32-Lm256", "M64-Lm512"])
def test_fig4_system_sustains_more_traffic_than_fig3(benchmark, message_length, flit_bytes):
    """Cross-figure shape check: N=544 saturates later than N=1120 (roughly 2x)."""
    message = MessageSpec(message_length, flit_bytes)

    def run():
        small = MultiClusterLatencyModel(table1_system(544), message)
        large = MultiClusterLatencyModel(table1_system(1120), message)
        return (
            saturation_point(small, upper_bound=2e-3),
            saturation_point(large, upper_bound=1e-3),
        )

    small_saturation, large_saturation = benchmark(run)
    print(f"\nsaturation N=544: {small_saturation:.3g}  N=1120: {large_saturation:.3g}")
    ratio = small_saturation / large_saturation
    assert 1.2 < ratio < 3.0, f"expected roughly 2x headroom, got {ratio:.2f}"
