"""Benchmark: the paper's future-work extensions, exercised end to end.

Covers the non-uniform (hot-spot) traffic extension — model and simulator —
and the processor-heterogeneity extension, on the N=544 Table 1 organisation.
"""

import math

import pytest

from benchmarks.conftest import bench_simulation_config
from repro.experiments.ablation import traffic_pattern_ablation
from repro.experiments.configs import table1_system
from repro.experiments.compare import relative_difference
from repro.experiments.report import curve_table
from repro.model import (
    HotspotTrafficModel,
    MessageSpec,
    MultiClusterLatencyModel,
    ProcessorHeterogeneityModel,
)
from repro.workloads import HotspotTraffic

MESSAGE = MessageSpec(32, 256)
SPEC = table1_system(544)
#: hot cluster: the last (largest, 64-node) cluster of the N=544 organisation
HOT_CLUSTER = 15


@pytest.mark.benchmark(group="extensions")
def test_hotspot_model_versus_uniform_model(benchmark):
    """Analytical extension: a 20% hot-spot lowers the saturation threshold."""

    def run():
        uniform = MultiClusterLatencyModel(SPEC, MESSAGE)
        hotspot = HotspotTrafficModel(SPEC, hot_cluster=HOT_CLUSTER, hotspot_fraction=0.2,
                                      message=MESSAGE)
        grid = [1e-4, 2e-4, 3e-4, 4e-4]
        return [(g, uniform.mean_latency(g), hotspot.mean_latency(g)) for g in grid]

    rows = benchmark(run)
    print()
    print("lambda_g   uniform   hotspot(20% -> cluster 15)")
    for lambda_g, uniform_latency, hotspot_latency in rows:
        print(f"{lambda_g:9.2g} {uniform_latency:9.1f} {hotspot_latency:9.1f}")

    for _, uniform_latency, hotspot_latency in rows:
        if math.isfinite(hotspot_latency) and math.isfinite(uniform_latency):
            assert hotspot_latency >= uniform_latency
    # The hot-spot curve saturates no later than the uniform one.
    uniform_saturated = [math.isinf(row[1]) for row in rows]
    hotspot_saturated = [math.isinf(row[2]) for row in rows]
    assert sum(hotspot_saturated) >= sum(uniform_saturated)


@pytest.mark.benchmark(group="extensions")
def test_hotspot_simulation_versus_uniform_model(benchmark):
    """Simulation under hot-spot traffic drifts above the uniform-traffic model."""
    offered = [2e-4]
    patterns = {
        "uniform": None,
        "hotspot-20%": HotspotTraffic(hot_cluster=HOT_CLUSTER, fraction=0.2),
    }

    def run():
        return traffic_pattern_ablation(
            SPEC,
            MESSAGE,
            offered,
            patterns,
            simulation_config=bench_simulation_config(),
        )

    runset = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for label in patterns:
        table = curve_table(
            runset,
            ("model", label),
            reference="model",
            headers=("uniform-traffic analytical model", f"simulation under {label}", "difference"),
            title=f"Ablation — {runset.scenario.name}: {label}",
        )
        print(table.to_text())
        print()

    uniform_error = abs(relative_difference(runset, "model", "uniform")[0])
    # The uniform simulation tracks the model; the hot-spot one sits higher.
    assert uniform_error < 0.25
    assert runset.curve("hotspot-20%")[0] > runset.curve("uniform")[0]


@pytest.mark.benchmark(group="extensions")
def test_processor_heterogeneity_extension(benchmark):
    """Skewing generation toward the big clusters raises latency at equal mean load."""

    def run():
        uniform = MultiClusterLatencyModel(SPEC, MESSAGE)
        # The five 64-node clusters generate 3x the traffic of the others.
        powers = [1.0] * 11 + [3.0] * 5
        skewed = ProcessorHeterogeneityModel(SPEC, powers, message=MESSAGE)
        grid = [1e-4, 2e-4, 3e-4]
        return [(g, uniform.mean_latency(g), skewed.mean_latency(g)) for g in grid]

    rows = benchmark(run)
    print()
    print("lambda_g   uniform   fast-big-clusters")
    for lambda_g, uniform_latency, skewed_latency in rows:
        print(f"{lambda_g:9.2g} {uniform_latency:9.1f} {skewed_latency:9.1f}")

    for _, uniform_latency, skewed_latency in rows:
        assert math.isinf(skewed_latency) or skewed_latency > uniform_latency
