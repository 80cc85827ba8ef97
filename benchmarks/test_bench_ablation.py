"""Benchmark: design-choice ablations (see :mod:`repro.experiments.ablation`).

Not part of the paper's evaluation, but they answer the questions its design
raises: how much does modelling cluster-size heterogeneity matter, and how
much does the Draper-Ghosh variance approximation contribute near saturation.
"""

import math

import numpy as np
import pytest

from repro.experiments.ablation import heterogeneity_ablation, variance_ablation
from repro.experiments.compare import relative_difference
from repro.experiments.configs import table1_system
from repro.experiments.report import curve_table
from repro.model import MultiClusterLatencyModel, saturation_point
from repro.model.parameters import MessageSpec

MESSAGE = MessageSpec(32, 256)


def _steady_state_grid(total_nodes: int, points: int = 6) -> np.ndarray:
    model = MultiClusterLatencyModel(table1_system(total_nodes), MESSAGE)
    upper = saturation_point(model, upper_bound=2e-3) * 0.9
    return np.linspace(0.0, upper, points + 1)[1:]


def _print_ablation(result) -> None:
    reference, variant = result.engines
    table = curve_table(
        result,
        result.engines,
        reference=reference,
        headers=(reference, variant, "difference"),
        title=f"Ablation — {result.scenario.name}",
    )
    print()
    print(table.to_text())


@pytest.mark.benchmark(group="ablation")
@pytest.mark.parametrize("total_nodes", [1120, 544], ids=["N1120", "N544"])
def test_heterogeneity_ablation(benchmark, total_nodes):
    """Equal-cluster-size approximation versus the heterogeneity-aware model."""
    spec = table1_system(total_nodes)
    offered = _steady_state_grid(total_nodes)

    result = benchmark(lambda: heterogeneity_ablation(spec, MESSAGE, offered))
    _print_ablation(result)

    differences = relative_difference(result, *result.engines)
    finite = [abs(d) for d in differences if not math.isnan(d)]
    # Ignoring the size mix visibly changes the prediction for both Table 1
    # organisations (they are strongly heterogeneous).
    assert max(finite) > 0.01
    # And the difference is not an artefact of saturation: at least half of
    # the grid compares finite values.
    assert len(finite) >= len(differences) // 2


@pytest.mark.benchmark(group="ablation")
@pytest.mark.parametrize("total_nodes", [1120, 544], ids=["N1120", "N544"])
def test_variance_approximation_ablation(benchmark, total_nodes):
    """Draper-Ghosh service-time variance versus deterministic service."""
    spec = table1_system(total_nodes)
    offered = _steady_state_grid(total_nodes)

    result = benchmark(lambda: variance_ablation(spec, MESSAGE, offered))
    _print_ablation(result)

    differences = [
        abs(d) for d in relative_difference(result, *result.engines) if not math.isnan(d)
    ]
    # The variance term only matters as queues fill up: negligible at low
    # load, visible near saturation.
    assert differences[0] < 0.05
    assert differences[-1] > differences[0]
    # Zero variance can only lower the predicted latency.
    reference, variant = (result.curve(engine) for engine in result.engines)
    for latency_reference, latency_variant in zip(reference, variant):
        if math.isfinite(latency_reference) and math.isfinite(latency_variant):
            assert latency_variant <= latency_reference + 1e-9
