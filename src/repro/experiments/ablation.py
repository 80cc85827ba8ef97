"""Design-choice ablations.

Three questions the paper's design raises but does not answer directly:

1. **Does modelling cluster-size heterogeneity matter?**  Compare the exact
   model with the equal-cluster-size approximation on the Table 1
   organisations (:func:`heterogeneity_ablation`).
2. **Does the Draper-Ghosh variance approximation matter?**  Compare the
   published source-queue variance (Eq. 22) with a deterministic-service
   assumption (:func:`variance_ablation`).
3. **How far does the uniform-traffic model stretch?**  Evaluate the
   simulator under non-uniform patterns against the (uniform-traffic)
   analytical curve (:func:`traffic_pattern_ablation`).

Each ablation is one :func:`repro.api.run` and returns its
:class:`~repro.api.RunSet`: the scenario is named after the ablation, and
the engines, reference first, are named after what they compute, so
:func:`repro.experiments.report.curve_table` can label the comparison and
:func:`repro.experiments.compare.relative_difference` quantifies it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro import api
from repro.model.parameters import MessageSpec, PAPER_TIMING, TimingParameters
from repro.sim.config import SimulationConfig
from repro.topology.multicluster import MultiClusterSpec
from repro.workloads.base import TrafficPattern


def heterogeneity_ablation(
    spec: MultiClusterSpec,
    message: MessageSpec,
    offered_traffic: Sequence[float],
    *,
    timing: TimingParameters = PAPER_TIMING,
) -> api.RunSet:
    """Exact heterogeneous model vs the equal-cluster-size approximation."""
    scenario = api.Scenario(
        system=spec,
        message=message,
        timing=timing,
        offered_traffic=offered_traffic,
        name=f"heterogeneity ({spec.name or spec.total_nodes})",
    )
    variant = api.equal_size_engine()
    height = variant.model_for(scenario).equivalent_height
    variant.name = f"equal-size approximation (n={height})"
    return api.run(
        scenario,
        engines=(api.AnalyticalEngine(name="heterogeneity-aware model"), variant),
    )


def variance_ablation(
    spec: MultiClusterSpec,
    message: MessageSpec,
    offered_traffic: Sequence[float],
    *,
    timing: TimingParameters = PAPER_TIMING,
) -> api.RunSet:
    """Draper-Ghosh source-queue variance (Eq. 22) vs deterministic service."""
    scenario = api.Scenario(
        system=spec,
        message=message,
        timing=timing,
        offered_traffic=offered_traffic,
        name=f"variance approximation ({spec.name or spec.total_nodes})",
    )
    return api.run(
        scenario,
        engines=(
            api.AnalyticalEngine(name="Draper-Ghosh variance (Eq. 22)"),
            api.AnalyticalEngine(
                variance_approximation="zero", name="zero-variance (M/D/1) source queues"
            ),
        ),
    )


def traffic_pattern_ablation(
    spec: MultiClusterSpec,
    message: MessageSpec,
    offered_traffic: Sequence[float],
    patterns: Dict[str, Optional[TrafficPattern]],
    *,
    timing: TimingParameters = PAPER_TIMING,
    simulation_config: SimulationConfig = SimulationConfig(),
    parallel: bool = False,
) -> api.RunSet:
    """Simulated latency under alternative traffic patterns vs the uniform model.

    ``patterns`` maps a label to a traffic pattern (``None`` means the
    uniform pattern).  The run set's reference is the analytical
    (uniform-traffic) curve, engine ``"model"``, and each pattern is
    simulated over the same grid by a simulation engine named by its label,
    showing where the published model stops being a good predictor.  With
    ``parallel=True`` every pattern's points share one process pool.
    """
    scenario = api.Scenario(
        system=spec,
        message=message,
        timing=timing,
        offered_traffic=offered_traffic,
        sim=simulation_config,
        name="traffic pattern",
    )
    engines = [api.AnalyticalEngine()]
    engines.extend(
        api.SimulationEngine(pattern=pattern, name=label)
        for label, pattern in patterns.items()
    )
    return api.run(scenario, engines=engines, parallel=parallel)
