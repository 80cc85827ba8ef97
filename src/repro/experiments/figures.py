"""Reproduction of Fig. 3 and Fig. 4: latency versus offered traffic.

Each figure of the paper has two panels (message length 32 and 64 flits) and
each panel shows four curves: analysis and simulation for flit sizes 256 and
512 bytes.  :func:`run_figure` regenerates all of that as data — one
campaign entry, and so one :class:`~repro.api.RunSet`, per (panel, flit
size) — which the report module renders as tables/CSV and the benchmarks
check for shape.
"""

from __future__ import annotations

from typing import Optional

from repro import api
from repro.campaign import Campaign, CampaignEntry, CampaignResult, run_campaign
from repro.experiments.configs import FigureSpec, figure_panels
from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.store import ResultStore


def panel_scenario(
    panel: FigureSpec,
    message: MessageSpec,
    *,
    num_points: Optional[int] = None,
    simulation_config: SimulationConfig = SimulationConfig(),
) -> api.Scenario:
    """The :class:`repro.api.Scenario` of one series of one panel."""
    return api.Scenario(
        system=panel.system,
        message=message,
        offered_traffic=tuple(float(v) for v in panel.offered_traffic(num_points)),
        sim=simulation_config,
        name=f"{panel.figure}/M{message.length_flits}-Lm{message.flit_bytes}",
    )


def figure_campaign(
    figure: str,
    *,
    num_points: Optional[int] = None,
    run_simulation: bool = True,
    simulation_config: SimulationConfig = SimulationConfig(),
) -> Campaign:
    """The whole figure — every panel, every flit size — as one campaign.

    Each series becomes one campaign entry, so a parallel execution fans the
    simulation points of *all four* series into one shared process pool
    instead of sweeping them one series at a time.
    """
    engines = ("model", "sim") if run_simulation else ("model",)
    entries = []
    for panel in figure_panels(figure):
        for message in panel.message_specs():
            scenario = panel_scenario(
                panel, message, num_points=num_points, simulation_config=simulation_config
            )
            entries.append(CampaignEntry(scenario=scenario, engines=engines))
    return Campaign(entries=tuple(entries), name=figure)


def run_figure(
    figure: str,
    *,
    num_points: Optional[int] = None,
    run_simulation: bool = True,
    simulation_config: SimulationConfig = SimulationConfig(),
    parallel: bool = False,
    max_workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> CampaignResult:
    """Regenerate ``"fig3"`` (N=1120) or ``"fig4"`` (N=544) as data.

    The figure executes as one campaign (:func:`figure_campaign`), whose
    result holds one run set per series, labelled
    ``"<figure>/M<length>-Lm<flit bytes>"`` in panel order: with
    ``parallel=True`` all series share a single process pool, and passing a
    :class:`~repro.store.ResultStore` makes re-generation incremental —
    only series whose scenario (or kernel switches) changed re-simulate.

    With ``run_simulation=False`` only the analysis curves are produced,
    which takes well under a second; the full analysis-plus-simulation
    reproduction at the paper's message budget is available through
    ``simulation_config=SimulationConfig.paper()``.  At the default 11
    points per series (44 simulation runs of 100k measured messages) it
    took 7.7 s for fig3 and 8.9 s for fig4 on one core of a 2-vCPU Xeon,
    sequentially and with no result store; ``parallel=True`` spreads the
    points over the machine's cores.
    """
    campaign = figure_campaign(
        figure,
        num_points=num_points,
        run_simulation=run_simulation,
        simulation_config=simulation_config,
    )
    return run_campaign(campaign, parallel=parallel, max_workers=max_workers, store=store)
