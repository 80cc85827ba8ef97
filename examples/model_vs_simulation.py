#!/usr/bin/env python
"""Reproduce the paper's validation figures (Fig. 3 and Fig. 4) as data.

For each figure panel (message length 32 and 64 flits) and each flit size
(256 and 512 bytes) the script sweeps offered traffic over the figure's axis
range, evaluating the analytical model and the wormhole simulator at every
point, prints the resulting series and writes them to CSV files under
``results/``.

The default simulation budget is small so the script finishes in a few
minutes; pass ``--paper-budget`` to use the paper's full 100 000-message
methodology (much slower), or ``--no-sim`` for the instant analysis-only
version.

Run it with::

    python examples/model_vs_simulation.py [--figure fig3|fig4] [--no-sim]
"""

import argparse
from pathlib import Path

from repro.experiments.compare import compare_runset
from repro.experiments.figures import run_figure
from repro.experiments.report import (
    agreement_to_text,
    figure_to_table,
    save_figure_csvs,
)
from repro.sim.config import SimulationConfig


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", choices=("fig3", "fig4", "both"), default="fig4")
    parser.add_argument("--points", type=int, default=6, help="points per curve")
    parser.add_argument("--no-sim", action="store_true", help="analysis only")
    parser.add_argument(
        "--paper-budget",
        action="store_true",
        help="use the paper's 100k-message budget instead of the quick one",
    )
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="fan simulation points out over all cores (identical results)",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    config = (
        SimulationConfig.paper(seed=args.seed)
        if args.paper_budget
        else SimulationConfig(
            measured_messages=2_000, warmup_messages=200, drain_messages=200, seed=args.seed
        )
    )
    figures = ("fig3", "fig4") if args.figure == "both" else (args.figure,)
    for figure_name in figures:
        print(f"=== {figure_name} "
              f"({'N=1120' if figure_name == 'fig3' else 'N=544'}) ===")
        result = run_figure(
            figure_name,
            num_points=args.points,
            run_simulation=not args.no_sim,
            simulation_config=config,
            parallel=args.parallel,
        )
        for table in figure_to_table(result):
            print(table.to_text())
            print()
        if not args.no_sim:
            for _, runset in result:
                print(agreement_to_text(compare_runset(runset)))
                print()
        paths = save_figure_csvs(result, args.out)
        print("CSV series written to:")
        for path in paths:
            print(f"  {path}")
        print()


if __name__ == "__main__":
    main()
