"""Model-versus-simulation agreement metrics.

The paper's claim is qualitative ("a good degree of accuracy ... in the
steady state region"); this module quantifies it so the benchmark harness can
assert it: mean/max relative error over the steady-state region, and the
ratio of the two saturation estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro import api
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign import CampaignResult


@dataclass(frozen=True)
class ApplicabilityReport:
    """Whether the paper's analytical model applies to one scenario.

    The model (Eq. 35-36) is derived for the multi-cluster fat-tree family;
    topology-zoo scenarios run through the simulator only.  This report is
    how front-ends (the CLI ``run`` command, campaign summaries) state that
    per scenario instead of crashing inside the model.
    """

    scenario_name: str
    #: the organisation's display name (system or zoo topology)
    topology: str
    applicable: bool
    reason: str

    def summary(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "topology": self.topology,
            "applicable": self.applicable,
            "reason": self.reason,
        }


def model_applicability(scenario: api.Scenario) -> ApplicabilityReport:
    """Report whether the analytical model applies to ``scenario``.

    Multi-cluster scenarios (``scenario.system`` set) are the family the
    paper's queueing model was derived for; zoo scenarios
    (``scenario.topology`` set) are simulation-only.
    """
    name = scenario.name or scenario.spec_label
    if scenario.system is not None:
        return ApplicabilityReport(
            scenario_name=name,
            topology=scenario.system.name or scenario.spec_label,
            applicable=True,
            reason="multi-cluster fat-tree system: the paper's Eq. 35-36 "
            "derivation applies",
        )
    return ApplicabilityReport(
        scenario_name=name,
        topology=scenario.network.name,
        applicable=False,
        reason=(
            f"zoo topology {scenario.network.name!r} is outside the "
            "multi-cluster fat-tree family the analytical model is derived "
            "for; simulation engines only"
        ),
    )


@dataclass(frozen=True)
class AgreementReport:
    """How well the analytical model tracks the simulation over one sweep."""

    sweep_name: str
    #: operating points in the steady-state region that have both values
    compared_points: int
    mean_relative_error: float
    max_relative_error: float
    #: offered traffic at which the model first saturates (inf if never)
    model_saturation: float
    #: offered traffic at which the simulation first exceeds the blow-up
    #: threshold (inf if never within the sweep)
    simulation_blowup: float

    @property
    def agrees_in_steady_state(self) -> bool:
        """The reproduction-level restatement of the paper's accuracy claim."""
        return self.compared_points > 0 and self.mean_relative_error < 0.2

    def summary(self) -> dict:
        return {
            "sweep": self.sweep_name,
            "compared_points": self.compared_points,
            "mean_relative_error": self.mean_relative_error,
            "max_relative_error": self.max_relative_error,
            "model_saturation": self.model_saturation,
            "simulation_blowup": self.simulation_blowup,
        }


def engine_latencies(runset: api.RunSet, engine: str) -> Tuple[float, ...]:
    """One engine's latency at every load of the grid (``nan`` throughout
    when the run set has no such engine)."""
    if engine not in runset.engines:
        return (math.nan,) * len(runset.scenario.offered_traffic)
    return tuple(record.latency for record in runset.series(engine))


def relative_difference(
    runset: api.RunSet, reference: str, variant: str
) -> Tuple[float, ...]:
    """``(variant - reference) / reference`` at every load of the grid.

    The one relative difference of the experiment layer: the agreement
    metrics and the tables read the model against the simulation with it,
    and the ablations their variant against their reference.  A point where
    either engine has no record or a non-finite (saturated) latency reads
    ``nan``.
    """
    return tuple(
        (value - base) / base if math.isfinite(base) and math.isfinite(value) else math.nan
        for base, value in zip(
            engine_latencies(runset, reference), engine_latencies(runset, variant)
        )
    )


def _steady_state_errors(
    runset: api.RunSet, model_engine: str, simulation_engine: str
) -> List[float]:
    """|model vs simulation| relative errors where the model has not saturated."""
    return [
        abs(error)
        for model, error in zip(
            engine_latencies(runset, model_engine),
            relative_difference(runset, simulation_engine, model_engine),
        )
        if not math.isinf(model) and not math.isnan(error)
    ]


def compare_runset(
    runset: api.RunSet,
    *,
    model_engine: str = "model",
    simulation_engine: str = "sim",
    blowup_factor: float = 5.0,
) -> AgreementReport:
    """Quantify how well one run set's model curve tracks its simulation.

    Parameters
    ----------
    runset:
        A run with a simulation series (the default engines of
        :func:`repro.api.run`); without a model series no point compares.
    blowup_factor:
        The simulation is considered saturated once its latency exceeds this
        multiple of the lowest simulated latency of the run (the knee of the
        curve in Fig. 3/4 terms).
    """
    if simulation_engine not in runset.engines:
        raise ValidationError(f"the run set has no {simulation_engine!r} series")
    grid = runset.scenario.offered_traffic
    simulated = runset.series(simulation_engine)
    errors = _steady_state_errors(runset, model_engine, simulation_engine)
    baseline = min(
        (record.latency for record in simulated if math.isfinite(record.latency)),
        default=math.inf,
    )
    simulation_blowup = next(
        (
            lambda_g
            for lambda_g, record in zip(grid, simulated)
            if record.saturated or record.latency > blowup_factor * baseline
        ),
        math.inf,
    )
    model_saturation = next(
        (
            lambda_g
            for lambda_g, latency in zip(grid, engine_latencies(runset, model_engine))
            if math.isinf(latency)
        ),
        math.inf,
    )
    scenario = runset.scenario
    return AgreementReport(
        sweep_name=f"{scenario.spec_label}, {scenario.message.describe()}",
        compared_points=len(errors),
        mean_relative_error=sum(errors) / len(errors) if errors else math.nan,
        max_relative_error=max(errors) if errors else math.nan,
        model_saturation=model_saturation,
        simulation_blowup=simulation_blowup,
    )


def compare_campaign(
    result: "CampaignResult",
    *,
    model_engine: str = "model",
    simulation_engine: str = "sim",
    blowup_factor: float = 5.0,
) -> Dict[str, AgreementReport]:
    """Agreement metrics for every campaign entry that ran both engines.

    Entries lacking either the model or the simulation series are skipped —
    a campaign may mix analysis-only and simulation-only scenarios — so the
    returned mapping covers exactly the entries where the paper's
    model-vs-simulation claim is testable, keyed by entry label.
    """
    reports: Dict[str, AgreementReport] = {}
    for label, runset in result:
        engines = runset.engines
        if model_engine not in engines or simulation_engine not in engines:
            continue
        reports[label] = compare_runset(
            runset,
            model_engine=model_engine,
            simulation_engine=simulation_engine,
            blowup_factor=blowup_factor,
        )
    return reports


def saturation_shift(report: AgreementReport) -> float:
    """Ratio model-saturation / simulation-blow-up (``nan`` if undetermined).

    Values below 1 mean the model is conservative (saturates earlier than the
    simulated system), which is the behaviour the paper reports near
    saturation.
    """
    if math.isinf(report.model_saturation) or math.isinf(report.simulation_blowup):
        return math.nan
    return report.model_saturation / report.simulation_blowup


def curves_match_in_shape(runset: api.RunSet, tolerance: float = 0.25) -> Tuple[bool, str]:
    """Cheap structural check used by the benchmarks.

    Verifies (a) the model and simulation curves are non-decreasing over the
    steady-state region (the loads where the model has not saturated) and
    (b) the model tracks the simulation within ``tolerance`` there.
    Returns (ok, reason).
    """
    grid = runset.scenario.offered_traffic
    model = engine_latencies(runset, "model")
    simulated = engine_latencies(runset, "sim")
    steady = [index for index, latency in enumerate(model) if not math.isinf(latency)]
    if len(steady) < 2:
        return False, "fewer than two steady-state points"
    last_model = -math.inf
    last_sim = -math.inf
    for index in steady:
        if model[index] < last_model - 1e-9:
            return False, f"model curve decreases at lambda={grid[index]}"
        last_model = model[index]
        if math.isfinite(simulated[index]):
            if simulated[index] < last_sim * 0.9:
                return False, f"simulation curve decreases at lambda={grid[index]}"
            last_sim = simulated[index]
    errors = _steady_state_errors(runset, "model", "sim")
    if errors and max(errors) > tolerance:
        return False, f"steady-state error {max(errors):.2f} exceeds {tolerance}"
    return True, "ok"
