"""Rendering of experiment results: tables, CSV files and a Markdown report.

The paper communicates its evaluation through one table and four figure
panels.  Without a plotting dependency the reproduction reports the same
content as aligned text tables (for the terminal / benchmark output), CSV
files (for anyone who wants to re-plot) and the Markdown report that
``repro-multicluster report`` prints.  Every curve arrives as a
:class:`~repro.api.RunSet` (a whole figure as a
:class:`~repro.campaign.CampaignResult`), and :func:`curve_table` renders
any two of its engines side by side.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.api import RunSet
from repro.experiments.compare import (
    AgreementReport,
    engine_latencies,
    relative_difference,
)
from repro.experiments.table1 import Table1Row
from repro.utils.tables import ResultTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign import CampaignResult


def _fmt_latency(value: float) -> str:
    if math.isinf(value):
        return "saturated"
    if math.isnan(value):
        return "-"
    return f"{value:.1f}"


def curve_table(
    runset: RunSet,
    engines: Sequence[str] = ("model", "sim"),
    *,
    reference: str = "sim",
    headers: Sequence[str] = ("model_latency", "sim_latency", "rel_error"),
    title: Optional[str] = None,
) -> ResultTable:
    """Two engines' latency curves over the load grid and their difference.

    ``engines`` are the two latency columns in display order, ``reference``
    the one the difference is relative to
    (:func:`~repro.experiments.compare.relative_difference`) and
    ``headers`` the three column headers after ``offered_traffic``.  An
    engine the run set lacks shows ``-``.  The defaults give the
    model-versus-simulation table of every experiment command; an ablation
    passes its two engines, reference first.
    """
    first, second = engines
    variant = first if reference == second else second
    scenario = runset.scenario
    table = ResultTable(
        headers=["offered_traffic", *headers],
        title=title
        or f"Mean message latency — {scenario.spec_label}, {scenario.message.describe()}",
    )
    for lambda_g, left, right, difference in zip(
        scenario.offered_traffic,
        engine_latencies(runset, first),
        engine_latencies(runset, second),
        relative_difference(runset, reference, variant),
    ):
        table.add_row(
            f"{lambda_g:.6g}",
            _fmt_latency(left),
            _fmt_latency(right),
            "-" if math.isnan(difference) else f"{difference:+.1%}",
        )
    return table


def figure_to_table(figure: "CampaignResult") -> List[ResultTable]:
    """One table per series of a figure (matches the original curves)."""
    return [curve_table(runset) for _, runset in figure]


def table1_to_table(rows: Iterable[Table1Row]) -> ResultTable:
    """Table 1 in the paper's layout plus derived switch counts."""
    table = ResultTable(
        headers=["N", "C", "m", "node organisation", "n_c", "switches"],
        title="Table 1. System organisations for validation",
    )
    for row in rows:
        table.add_row(
            row.total_nodes,
            row.num_clusters,
            row.switch_ports,
            row.organisation,
            row.icn2_height,
            row.total_switches,
        )
    return table


def agreement_to_text(report: AgreementReport) -> str:
    """One agreement report as a short paragraph."""
    lines = [
        f"{report.sweep_name}:",
        f"  steady-state points compared : {report.compared_points}",
        f"  mean |relative error|        : {report.mean_relative_error:.1%}"
        if not math.isnan(report.mean_relative_error)
        else "  mean |relative error|        : n/a",
        f"  max  |relative error|        : {report.max_relative_error:.1%}"
        if not math.isnan(report.max_relative_error)
        else "  max  |relative error|        : n/a",
        f"  model saturation (lambda_g)  : {report.model_saturation:.3g}",
        f"  simulation blow-up (lambda_g): {report.simulation_blowup:.3g}",
    ]
    return "\n".join(lines)


def save_figure_csvs(figure: "CampaignResult", directory: str | Path) -> List[Path]:
    """Write every series of a figure to CSV files under ``directory``."""
    directory = Path(directory)
    paths = []
    for _, runset in figure:
        message = runset.scenario.message
        filename = (
            f"{figure.campaign.name}_M{message.length_flits}_Lm{message.flit_bytes}.csv"
        )
        paths.append(curve_table(runset).save_csv(directory / filename))
    return paths


def experiments_markdown(
    *,
    table1: Iterable[Table1Row],
    figures: Dict[str, "CampaignResult"],
    agreements: Optional[Dict[str, AgreementReport]] = None,
    ablations: Optional[Iterable[RunSet]] = None,
    notes: Optional[str] = None,
) -> str:
    """Render a full experiments report as Markdown.

    ``figures`` maps a section heading to a figure's campaign result and
    ``ablations`` holds ablation run sets (reference engine first, the
    scenario named after the ablation).
    """
    lines: List[str] = [
        "# Experiments: paper versus reproduction",
        "",
        "Regenerated by `repro-multicluster report` (see README for the exact",
        "commands).  Latencies are in the paper's abstract time units.",
        "",
        "## Table 1 — system organisations",
        "",
        "```",
        table1_to_table(table1).to_text(),
        "```",
        "",
    ]
    for name, figure in sorted(figures.items()):
        lines.append(f"## {name}")
        lines.append("")
        for table in figure_to_table(figure):
            lines.append("```")
            lines.append(table.to_text())
            lines.append("```")
            lines.append("")
        if agreements and name in agreements:
            lines.append("```")
            lines.append(agreement_to_text(agreements[name]))
            lines.append("```")
            lines.append("")
    if ablations:
        lines.append("## Ablations")
        lines.append("")
        for ablation in ablations:
            reference, variant = ablation.engines
            table = curve_table(
                ablation,
                ablation.engines,
                reference=reference,
                headers=(reference, variant, "difference"),
                title=f"Ablation — {ablation.scenario.name}",
            )
            lines.append("```")
            lines.append(table.to_text())
            lines.append("```")
            lines.append("")
    if notes:
        lines.append("## Notes")
        lines.append("")
        lines.append(notes)
        lines.append("")
    return "\n".join(lines)
