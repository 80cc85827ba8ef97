"""Benchmark: regenerate Fig. 3 (N=1120) — latency versus offered traffic.

The paper's Fig. 3 has two panels (M = 32 and 64 flits), each with an
analysis and a simulation curve for flit sizes 256 and 512 bytes.  Each
benchmark below regenerates one series (model curve plus simulation points),
prints it, and asserts the qualitative findings of the paper:

* analysis tracks simulation in the steady-state region;
* latency rises (and eventually diverges) with offered traffic;
* larger flits (Lm=512) are uniformly slower and saturate earlier.
"""

import math

import pytest

from benchmarks.conftest import bench_points, bench_simulation_config
from repro import api
from repro.experiments.compare import compare_runset, curves_match_in_shape
from repro.experiments.configs import FIGURE_SPECS
from repro.experiments.figures import panel_scenario
from repro.experiments.report import agreement_to_text, curve_table
from repro.model.parameters import MessageSpec

PANELS = [
    pytest.param("fig3-M32", 256, id="M32-Lm256"),
    pytest.param("fig3-M32", 512, id="M32-Lm512"),
    pytest.param("fig3-M64", 256, id="M64-Lm256"),
    pytest.param("fig3-M64", 512, id="M64-Lm512"),
]


@pytest.mark.benchmark(group="fig3")
@pytest.mark.parametrize("panel_name,flit_bytes", PANELS)
def test_fig3_series(benchmark, panel_name, flit_bytes):
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


@pytest.mark.benchmark(group="fig3")
@pytest.mark.parametrize("message_length", [32, 64], ids=["M32", "M64"])
def test_fig3_larger_flits_saturate_earlier(benchmark, message_length):
    """Within one panel the Lm=512 curve sits above and saturates before Lm=256."""
    panel = FIGURE_SPECS[f"fig3-M{message_length}"]
    offered = panel.offered_traffic(bench_points())

    def run():
        return {
            flit: api.run(
                panel_scenario(panel, MessageSpec(message_length, flit), num_points=bench_points()),
                engines=("model",),
            ).curve("model")
            for flit in (256, 512)
        }

    def saturation(curve):
        """First offered traffic at which the model saturates (inf if never)."""
        return next((load for load, latency in zip(offered, curve) if math.isinf(latency)), math.inf)

    curves = benchmark(run)
    small, large = curves[256], curves[512]
    assert saturation(large) <= saturation(small)
    for latency_small, latency_large in zip(small, large):
        if math.isfinite(latency_small) and math.isfinite(latency_large):
            assert latency_large > latency_small
