"""Experiment harness reproducing the paper's evaluation (Table 1, Fig. 3, Fig. 4).

The harness turns "regenerate figure 3" into one function call.  Every
curve it produces is a :class:`~repro.api.RunSet` (one scenario under its
engines) and a whole figure is a :class:`~repro.campaign.CampaignResult`:

* :mod:`repro.experiments.configs` — the exact Table 1 system organisations,
  the paper's channel timing, the four message geometries and the offered-
  traffic ranges of the figures;
* :mod:`repro.experiments.figures` — Fig. 3 and Fig. 4 as one campaign each
  (one entry per curve of the original plots);
* :mod:`repro.experiments.table1` — the Table 1 organisation summary;
* :mod:`repro.experiments.compare` — model-versus-simulation agreement
  metrics (the paper's "good degree of accuracy" claim, quantified) and the
  one relative difference of two engine series;
* :mod:`repro.experiments.ablation` — design-choice ablations the paper
  raises but does not run (heterogeneity awareness, variance approximation,
  traffic pattern);
* :mod:`repro.experiments.report` — plain-text / CSV / Markdown rendering,
  including the report ``repro-multicluster report`` prints.
"""

from repro.experiments.configs import (
    FIGURE_SPECS,
    FigureSpec,
    paper_message_specs,
    table1_specs,
    table1_system,
)
from repro.experiments.figures import (
    figure_campaign,
    panel_scenario,
    run_figure,
)
from repro.experiments.table1 import table1_campaign, table1_rows
from repro.experiments.compare import (
    AgreementReport,
    ApplicabilityReport,
    compare_campaign,
    compare_runset,
    model_applicability,
    relative_difference,
)
from repro.experiments.ablation import (
    heterogeneity_ablation,
    traffic_pattern_ablation,
    variance_ablation,
)
from repro.experiments.report import (
    curve_table,
    experiments_markdown,
    figure_to_table,
)

__all__ = [
    "FIGURE_SPECS",
    "FigureSpec",
    "paper_message_specs",
    "table1_specs",
    "table1_system",
    "figure_campaign",
    "panel_scenario",
    "run_figure",
    "table1_campaign",
    "table1_rows",
    "AgreementReport",
    "ApplicabilityReport",
    "compare_campaign",
    "compare_runset",
    "model_applicability",
    "relative_difference",
    "heterogeneity_ablation",
    "traffic_pattern_ablation",
    "variance_ablation",
    "curve_table",
    "experiments_markdown",
    "figure_to_table",
]
