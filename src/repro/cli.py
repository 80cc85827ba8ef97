"""Command-line interface: ``repro-multicluster`` (or ``python -m repro``).

Sub-commands mirror the experiment harness:

* ``run``        — evaluate a named or JSON-file scenario under any set of
  engines through the unified API (:mod:`repro.api`), optionally in
  parallel; ``run --list`` shows the registered scenario names;
* ``table1``     — print the Table 1 system organisations;
* ``fig3`` / ``fig4`` — regenerate the validation figures (analysis and,
  unless ``--no-sim``, simulation), print the series and optionally write
  CSV files;
* ``sweep``      — a custom latency-versus-traffic sweep for any organisation
  expressed as ``m`` plus per-cluster tree heights;
* ``saturation`` — locate the saturation point of an organisation;
* ``ablation``   — run the heterogeneity and variance ablations;
* ``report``     — print (or ``--output`` to a file) the full Markdown
  experiments report: Table 1, both figures and their agreement;
* ``bench``      — run the fixed simulator benchmark set and write the
  machine-readable ``BENCH_simulator.json`` perf artifact (optionally
  comparing against a previous artifact via ``--baseline``; ``--parallel``
  adds the shared-pool speedup-vs-workers curve);
* ``campaign``   — the multi-scenario Campaign API: ``campaign run
  plan.json --parallel --progress[=bar]`` executes a JSON plan over one
  shared process pool with streaming progress (or an aggregated
  per-scenario bar) and the content-addressed result store;
  ``--retries``/``--task-timeout`` make unattended campaigns survive
  crashed or hung workers (``--allow-failures`` reports partial results
  instead of failing); ``campaign example`` writes a starter plan;
  ``campaign store`` inspects (``--stats``) / prunes / clears the SQLite
  result store and merges another machine's store into it (``--sync SRC``
  copies, ``--merge SRC`` drains);
* ``serve``      — the campaign service (:mod:`repro.service`): one
  long-lived worker pool behind a stdlib HTTP front-end that accepts
  campaign plans as JSON on ``POST /campaigns`` and streams progress back
  as server-sent events; warm workers keep their own compiled tables and
  engines, so a warm pool skips the per-campaign compile entirely, and
  fully cached plans are answered straight from the result store.

Every command is pure text output (tables / CSV / JSON); nothing requires a
plotting stack.  A command whose campaign has tasks that exhausted their
retries prints ``error:`` and the failures, and exits 3.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro import api
from repro.campaign import CampaignExecutionError
from repro.experiments.ablation import heterogeneity_ablation, variance_ablation
from repro.experiments.compare import compare_runset, model_applicability
from repro.experiments.configs import table1_specs, table1_system
from repro.experiments.figures import run_figure
from repro.experiments.report import (
    agreement_to_text,
    curve_table,
    experiments_markdown,
    figure_to_table,
    save_figure_csvs,
    table1_to_table,
)
from repro.experiments.table1 import table1_rows
from repro.model.latency import MultiClusterLatencyModel
from repro.model.parameters import MessageSpec
from repro.model.saturation import saturation_point
from repro.sim.config import SimulationConfig
from repro.utils.serialization import dump_json
from repro.topology.multicluster import MultiClusterSpec
from repro.utils.validation import ValidationError


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-multicluster",
        description=(
            "Analytical and simulation models of interconnection networks in "
            "heterogeneous multi-cluster systems (ICPP Workshops 2006 reproduction)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run",
        help="evaluate a named scenario or a scenario JSON file through repro.api",
    )
    run_parser.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="registered scenario name (see --list) or path to a scenario .json file",
    )
    run_parser.add_argument(
        "--list", action="store_true", help="list the registered scenario names and exit"
    )
    run_parser.add_argument(
        "--engines",
        default="model,sim",
        help="comma-separated engine names (default: model,sim)",
    )
    run_parser.add_argument(
        "--points",
        type=int,
        default=8,
        help="operating points for named scenarios (default 8; ignored for files)",
    )
    run_parser.add_argument(
        "--csv", type=Path, default=None, help="write the result table to CSV"
    )
    run_parser.add_argument(
        "--json", type=Path, default=None, help="write the full run set to JSON"
    )
    run_parser.add_argument(
        "--save-scenario",
        type=Path,
        default=None,
        help="write the resolved scenario itself to a JSON file (replayable via run)",
    )
    _add_simulation_options(run_parser, include_no_sim=False)
    # For `run`, budget/seed default to None sentinels: a scenario loaded
    # from a JSON file keeps its saved sim config unless a flag is given
    # explicitly (named scenarios fall back to quick/0).
    run_parser.set_defaults(budget=None, seed=None)

    subparsers.add_parser("table1", help="print the Table 1 system organisations")

    for figure in ("fig3", "fig4"):
        figure_parser = subparsers.add_parser(
            figure, help=f"regenerate {figure} (latency vs offered traffic)"
        )
        _add_simulation_options(figure_parser)
        figure_parser.add_argument(
            "--points", type=int, default=8, help="operating points per curve (default 8)"
        )
        figure_parser.add_argument(
            "--csv-dir", type=Path, default=None, help="write one CSV per series here"
        )

    sweep_parser = subparsers.add_parser(
        "sweep", help="latency sweep for a custom organisation"
    )
    sweep_parser.add_argument("--ports", "-m", type=int, required=True, help="switch ports m")
    sweep_parser.add_argument(
        "--heights",
        type=int,
        nargs="+",
        required=True,
        help="per-cluster tree heights n_i (one value per cluster)",
    )
    sweep_parser.add_argument("--message-flits", type=int, default=32)
    sweep_parser.add_argument("--flit-bytes", type=int, default=256)
    sweep_parser.add_argument(
        "--max-traffic", type=float, required=True, help="largest offered traffic to evaluate"
    )
    sweep_parser.add_argument("--points", type=int, default=8)
    sweep_parser.add_argument("--csv", type=Path, default=None, help="write the sweep to CSV")
    _add_simulation_options(sweep_parser)

    saturation_parser = subparsers.add_parser(
        "saturation", help="locate the saturation offered traffic of a Table 1 organisation"
    )
    saturation_parser.add_argument("--nodes", type=int, choices=(1120, 544), default=544)
    saturation_parser.add_argument("--message-flits", type=int, default=32)
    saturation_parser.add_argument("--flit-bytes", type=int, default=256)

    ablation_parser = subparsers.add_parser(
        "ablation", help="run the heterogeneity and variance ablations"
    )
    ablation_parser.add_argument("--nodes", type=int, choices=(1120, 544), default=1120)
    ablation_parser.add_argument("--message-flits", type=int, default=32)
    ablation_parser.add_argument("--flit-bytes", type=int, default=256)
    ablation_parser.add_argument("--points", type=int, default=6)

    report_parser = subparsers.add_parser(
        "report", help="print the Markdown experiments report (Table 1, Fig. 3, Fig. 4)"
    )
    _add_simulation_options(report_parser)
    report_parser.add_argument("--points", type=int, default=6)
    report_parser.add_argument(
        "--output", type=Path, default=None, help="write the Markdown report to this file"
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the fixed simulator benchmark set and write BENCH_simulator.json",
    )
    bench_parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_simulator.json"),
        help="where to write the benchmark JSON (default: BENCH_simulator.json)",
    )
    bench_parser.add_argument(
        "--budget",
        choices=("quick", "default", "paper"),
        default="quick",
        help="simulation message budget per operating point",
    )
    bench_parser.add_argument("--seed", type=int, default=0, help="simulation random seed")
    bench_parser.add_argument(
        "--points", type=int, default=3, help="operating points per scenario (default 3)"
    )
    bench_parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="previous BENCH_simulator.json to compute speedups against",
    )
    bench_parser.add_argument(
        "--baseline-label",
        default="baseline",
        help="label recorded for the --baseline run",
    )
    bench_parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny message budget: exercise the harness without timing claims",
    )
    bench_parser.add_argument(
        "--parallel",
        action="store_true",
        help="fan operating points over a process pool (bit-identical results; "
        "records multi-core scaling in the workers/elapsed columns)",
    )
    bench_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process count for --parallel (default: CPU count)",
    )

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="multi-scenario execution plans with streaming progress and a result store",
    )
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="execute a campaign plan JSON file"
    )
    campaign_run.add_argument("plan", type=Path, help="path to a campaign plan .json file")
    campaign_run.add_argument(
        "--parallel",
        action="store_true",
        help="fan all scenarios' simulation points over one shared process pool",
    )
    campaign_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process count for --parallel (default: CPU count)",
    )
    campaign_run.add_argument(
        "--progress",
        nargs="?",
        const="plain",
        default=None,
        choices=("plain", "bar"),
        help="live progress: 'plain' (default when the flag is bare) streams one "
        "line per finished task; 'bar' renders a single aggregated bar with "
        "per-scenario completion counts",
    )
    campaign_run.add_argument(
        "--no-store",
        action="store_true",
        help="disable the result store: compute every task fresh, cache nothing",
    )
    campaign_run.add_argument(
        "--store",
        type=Path,
        default=None,
        help="result store directory (default: $REPRO_STORE or ~/.cache/repro)",
    )
    campaign_run.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="attempts per task (default 1 = no retries); crashed or hung "
        "pooled workers are re-queued onto a fresh worker up to N times",
    )
    campaign_run.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget; with it set every task runs on a "
        "worker process (one, without --parallel), and a worker over budget "
        "is killed and its task re-queued (requires --retries > 1 to "
        "actually retry)",
    )
    campaign_run.add_argument(
        "--allow-failures",
        action="store_true",
        help="finish the campaign even if tasks exhaust their retries: report "
        "partial results instead of exiting with an error",
    )
    campaign_run.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write every entry's run set plus execution stats to this JSON file",
    )

    campaign_example = campaign_sub.add_parser(
        "example", help="write a starter two-scenario campaign plan"
    )
    campaign_example.add_argument("output", type=Path, help="where to write the plan JSON")
    campaign_example.add_argument(
        "--points", type=int, default=2, help="operating points per scenario (default 2)"
    )
    campaign_example.add_argument(
        "--budget",
        choices=("quick", "default", "paper"),
        default="quick",
        help="simulation message budget per operating point",
    )
    campaign_example.add_argument(
        "--seed", type=int, default=0, help="simulation random seed"
    )

    campaign_store = campaign_sub.add_parser(
        "store", help="inspect, evict or merge the content-addressed result store"
    )
    campaign_store.add_argument(
        "--store",
        type=Path,
        default=None,
        help="result store directory (default: $REPRO_STORE or ~/.cache/repro)",
    )
    campaign_store.add_argument(
        "--clear", action="store_true", help="delete every cached record"
    )
    campaign_store.add_argument(
        "--prune",
        type=int,
        default=None,
        metavar="N",
        help="keep only the N most recently used records",
    )
    campaign_store.add_argument(
        "--sync",
        type=Path,
        default=None,
        metavar="SRC",
        help="copy records from the store at SRC into this store "
        "(content-addressed owner-wins merge: identical keys keep this "
        "store's copy; SRC is left unchanged)",
    )
    campaign_store.add_argument(
        "--merge",
        type=Path,
        default=None,
        metavar="SRC",
        help="like --sync, but drain merged records out of SRC so the union "
        "ends up wholly in this store",
    )
    campaign_store.add_argument(
        "--stats",
        action="store_true",
        help="print record count, size, backend and hit/miss/put counters",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve campaign plans over HTTP from a persistent warm worker pool",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (default 8765; 0 binds a free ephemeral port)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="persistent worker processes (default: CPU count)",
    )
    serve_parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the result store: compute every task fresh, cache nothing",
    )
    serve_parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="result store directory (default: $REPRO_STORE or ~/.cache/repro)",
    )
    serve_parser.add_argument(
        "--backend",
        choices=("sqlite",),
        default=None,
        help="result store backend: SQLite is the only one",
    )
    serve_parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="attempts per task for served campaigns (default 1 = no retries); "
        "a crashed worker pool is restarted and its tasks re-queued",
    )
    return parser


def _add_simulation_options(
    parser: argparse.ArgumentParser, *, include_no_sim: bool = True
) -> None:
    if include_no_sim:
        parser.add_argument(
            "--no-sim", action="store_true", help="analytical model only (much faster)"
        )
    parser.add_argument(
        "--budget",
        choices=("quick", "default", "paper"),
        default="quick",
        help="simulation message budget (quick=1.5k, default=10k, paper=100k measured)",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation random seed")
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="fan simulation points out over a process pool (identical results)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process count for --parallel (default: CPU count)",
    )


def _simulation_config(args: argparse.Namespace) -> SimulationConfig:
    return api.simulation_budget(args.budget, args.seed)


def _message(args: argparse.Namespace) -> MessageSpec:
    return MessageSpec(length_flits=args.message_flits, flit_bytes=args.flit_bytes)


# --------------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------------- #
def _resolve_run_scenario(args: argparse.Namespace) -> "api.Scenario":
    """Name-or-file resolution for the ``run`` subcommand."""
    target = args.scenario
    path = Path(target)
    if target.endswith(".json") or path.exists():
        if not path.exists():
            raise ValidationError(f"scenario file not found: {path}")
        try:
            scenario = api.Scenario.from_json(path)
        except (TypeError, ValueError, KeyError) as error:
            raise ValidationError(f"invalid scenario file {path}: {error}") from error
        # The file's saved sim config is authoritative; explicit --budget /
        # --seed flags override it for replays at a different budget.
        if args.budget is not None:
            seed = args.seed if args.seed is not None else scenario.sim.seed
            return scenario.with_sim(api.simulation_budget(args.budget, seed))
        if args.seed is not None:
            return scenario.with_seed(args.seed)
        return scenario
    return api.scenario(
        target,
        points=args.points,
        budget=args.budget if args.budget is not None else "quick",
        seed=args.seed if args.seed is not None else 0,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list:
        print("registered scenarios:")
        for name in api.scenario_names():
            print(f"  {name}")
        return 0
    if args.scenario is None:
        raise ValidationError("a scenario name or .json file is required (or --list)")
    scenario = _resolve_run_scenario(args)
    engines = tuple(name.strip() for name in args.engines.split(",") if name.strip())
    applicability = model_applicability(scenario)
    if not applicability.applicable:
        analytical = {"model", "analysis"}
        dropped = tuple(name for name in engines if name in analytical)
        if dropped:
            engines = tuple(name for name in engines if name not in analytical)
            print(f"analytical model not applicable: {applicability.reason}")
            print(f"skipping engine(s): {', '.join(dropped)}")
            if not engines:
                raise ValidationError(
                    "no engines left to run; zoo topologies need a "
                    "simulation engine (e.g. --engines sim)"
                )
    if args.save_scenario is not None:
        path = scenario.to_json(args.save_scenario)
        print(f"wrote scenario: {path}")
    runset = api.run(
        scenario, engines=engines, parallel=args.parallel, max_workers=args.workers
    )
    print(runset.describe())
    print()
    table = curve_table(runset)
    print(table.to_text())
    if "model" in runset.engines and "sim" in runset.engines:
        print()
        print(agreement_to_text(compare_runset(runset)))
    print()
    print(f"engine wall-clock total: {runset.total_wall_clock_seconds():.2f} s")
    if args.csv is not None:
        path = table.save_csv(args.csv)
        print(f"wrote: {path}")
    if args.json is not None:
        path = dump_json(runset, args.json)
        print(f"wrote: {path}")
    return 0


def _cmd_table1(_: argparse.Namespace) -> int:
    print(table1_to_table(table1_rows()).to_text())
    for spec in table1_specs():
        print()
        print(spec.describe())
    return 0


def _cmd_figure(args: argparse.Namespace, figure: str) -> int:
    config = _simulation_config(args)
    result = run_figure(
        figure,
        num_points=args.points,
        run_simulation=not args.no_sim,
        simulation_config=config,
        parallel=args.parallel,
        max_workers=args.workers,
    )
    for table in figure_to_table(result):
        print(table.to_text())
        print()
    if not args.no_sim:
        for _, runset in result:
            print(agreement_to_text(compare_runset(runset)))
            print()
    if args.csv_dir is not None:
        paths = save_figure_csvs(result, args.csv_dir)
        print("wrote:", ", ".join(str(path) for path in paths))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = MultiClusterSpec(m=args.ports, cluster_heights=tuple(args.heights))
    scenario = api.Scenario(
        system=spec,
        message=_message(args),
        offered_traffic=api.Scenario.load_grid(args.max_traffic, args.points),
        sim=_simulation_config(args),
    )
    runset = api.run(
        scenario,
        engines=("model",) if args.no_sim else ("model", "sim"),
        parallel=args.parallel,
        max_workers=args.workers,
    )
    table = curve_table(runset)
    print(table.to_text())
    if args.csv is not None:
        path = table.save_csv(args.csv)
        print(f"wrote: {path}")
    return 0


def _cmd_saturation(args: argparse.Namespace) -> int:
    spec = table1_system(args.nodes)
    model = MultiClusterLatencyModel(spec, _message(args))
    upper = 2e-3 if args.nodes == 544 else 1e-3
    point = saturation_point(model, upper_bound=upper)
    print(f"{spec.name}, {_message(args).describe()}")
    print(f"zero-load latency      : {model.zero_load_latency:.1f} time units")
    print(f"saturation offered traffic (model): {point:.6g} messages/node/time-unit")
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    spec = table1_system(args.nodes)
    message = _message(args)
    model = MultiClusterLatencyModel(spec, message)
    upper = saturation_point(model, upper_bound=2e-3) * 0.9
    offered = np.linspace(0.0, upper, args.points + 1)[1:]
    for result in (
        heterogeneity_ablation(spec, message, offered),
        variance_ablation(spec, message, offered),
    ):
        reference, variant = result.engines
        table = curve_table(
            result,
            result.engines,
            reference=reference,
            headers=(reference, variant, "difference"),
            title=f"Ablation — {result.scenario.name}",
        )
        print(table.to_text())
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = _simulation_config(args)
    figures = {
        "Figure 3 (N=1120)": run_figure(
            "fig3",
            num_points=args.points,
            run_simulation=not args.no_sim,
            simulation_config=config,
            parallel=args.parallel,
            max_workers=args.workers,
        ),
        "Figure 4 (N=544)": run_figure(
            "fig4",
            num_points=args.points,
            run_simulation=not args.no_sim,
            simulation_config=config,
            parallel=args.parallel,
            max_workers=args.workers,
        ),
    }
    agreements = {}
    if not args.no_sim:
        for name, figure in figures.items():
            # Report agreement for the first series of every figure.
            agreements[name] = compare_runset(figure.runsets[0])
    markdown = experiments_markdown(
        table1=table1_rows(), figures=figures, agreements=agreements or None
    )
    if args.output is not None:
        args.output.write_text(markdown, encoding="utf-8")
        print(f"wrote: {args.output}")
    else:
        print(markdown)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import (
        attach_baseline,
        bench_to_text,
        load_baseline,
        run_bench,
        write_bench,
    )

    baseline = None
    if args.baseline is not None:
        if not args.baseline.exists():
            raise ValidationError(f"baseline file not found: {args.baseline}")
        baseline = load_baseline(args.baseline)
    payload = run_bench(
        points=args.points,
        budget=args.budget,
        seed=args.seed,
        smoke=args.smoke,
        parallel=args.parallel,
        workers=args.workers,
    )
    if baseline is not None:
        payload = attach_baseline(payload, baseline, label=args.baseline_label)
    print(bench_to_text(payload))
    path = write_bench(payload, args.output)
    print(f"wrote: {path}")
    return 0


def _campaign_store(args: argparse.Namespace) -> "ResultStore":
    from repro.store import ResultStore

    return ResultStore(args.store)


class _ProgressBar:
    """One-line ``--progress=bar`` renderer: campaign bar + per-scenario counts.

    Pure ``\\r`` redraw on stdout — no curses, no dependencies — aggregating
    completion per scenario label so a many-scenario campaign reads at a
    glance where the work is.
    """

    WIDTH = 30

    def __init__(self, campaign) -> None:
        self.totals = {
            label: len(entry.engines) * len(entry.scenario.offered_traffic)
            for label, entry in zip(campaign.labels, campaign.entries)
        }
        self.done = {label: 0 for label in self.totals}
        self.total = sum(self.totals.values())
        self.failed = 0
        self.retries = 0
        self._last_width = 0

    def update(self, event) -> None:
        from repro.campaign import TaskCompleted, TaskFailed, TaskRetried

        if isinstance(event, TaskCompleted):
            self.done[event.task.label] += 1
        elif isinstance(event, TaskFailed):
            self.done[event.task.label] += 1
            self.failed += 1
        elif isinstance(event, TaskRetried):
            self.retries += 1
        else:
            return
        self.render()

    def render(self) -> None:
        done = sum(self.done.values())
        filled = int(self.WIDTH * done / self.total) if self.total else self.WIDTH
        bar = "#" * filled + "-" * (self.WIDTH - filled)
        scenarios = "  ".join(
            f"{label} {count}/{self.totals[label]}"
            for label, count in self.done.items()
        )
        line = f"[{bar}] {done}/{self.total}  {scenarios}"
        if self.retries:
            line += f"  ({self.retries} retries)"
        if self.failed:
            line += f"  ({self.failed} FAILED)"
        # Pad over the previous render so a shrinking line leaves no litter.
        padding = " " * max(self._last_width - len(line), 0)
        self._last_width = len(line)
        print(f"\r{line}{padding}", end="", flush=True)

    def finish(self) -> None:
        if self._last_width:
            print(flush=True)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import (
        Campaign,
        CampaignExecutor,
        RetryPolicy,
        TaskCompleted,
        TaskFailed,
        TaskRetried,
        result_payload,
    )
    from repro.experiments.compare import compare_campaign

    if not args.plan.exists():
        raise ValidationError(f"campaign plan not found: {args.plan}")
    try:
        campaign = Campaign.from_json(args.plan)
    except (TypeError, ValueError, KeyError) as error:
        raise ValidationError(f"invalid campaign plan {args.plan}: {error}") from error
    store = None if args.no_store else _campaign_store(args)
    retry = None
    if args.retries != 1 or args.task_timeout is not None:
        retry = RetryPolicy(
            max_attempts=args.retries, timeout_seconds=args.task_timeout
        )
    executor = CampaignExecutor(
        campaign,
        parallel=args.parallel,
        max_workers=args.workers,
        store=store,
        retry=retry,
    )
    print(campaign.describe())
    if store is not None:
        print(f"result store: {store.root} [{store.backend.name}]")
    print()

    bar = _ProgressBar(campaign) if args.progress == "bar" else None

    def _print_event(event) -> None:
        if bar is not None:
            bar.update(event)
            return
        if args.progress is None:
            return
        if isinstance(event, TaskCompleted):
            task = event.task
            origin = "cache" if event.from_cache else "ran"
            print(
                f"[{event.done}/{event.total}] {task.label} {task.engine} "
                f"lambda_g={task.lambda_g:.6g} latency={event.record.latency:.6g} "
                f"({origin}, {event.elapsed_seconds:.2f} s elapsed)"
            )
        elif isinstance(event, TaskRetried):
            print(
                f"[retry] {event.task.task_id} lambda_g={event.task.lambda_g:.6g} "
                f"attempt {event.attempt}/{event.max_attempts} failed: {event.error}"
            )
        elif isinstance(event, TaskFailed):
            print(
                f"[FAILED {event.done}/{event.total}] {event.task.task_id} "
                f"after {event.attempts} attempts: {event.error}"
            )

    try:
        result = executor.collect(
            strict=not args.allow_failures, on_event=_print_event
        )
    finally:
        if bar is not None:
            bar.finish()
    if args.progress is not None:
        print()
    failed_labels = {failure.task.label for failure in result.failures}
    for label, runset in result:
        header = runset.scenario.describe()
        if label != runset.scenario.name:
            header = f"{label}: {header}"
        if label in failed_labels:
            # A partial series misaligns against the load grid; name the
            # holes instead of tabulating around them.
            missing = [
                failure.task.task_id
                for failure in result.failures
                if failure.task.label == label
            ]
            print(f"== {header}")
            print(f"   PARTIAL: missing {', '.join(missing)}")
            print()
            continue
        print(f"== {header}")
        print(curve_table(runset).to_text())
        print()
    if not failed_labels:
        for label, report in compare_campaign(result).items():
            print(f"-- {label}")
            print(agreement_to_text(report))
            print()
    summary = (
        f"{result.total_tasks} tasks in {result.elapsed_seconds:.2f} s "
        f"({result.cache_hits} cached, {result.cache_misses} computed)"
    )
    if result.task_retries:
        summary += f", {result.task_retries} retries"
    if result.failures:
        summary += f", {len(result.failures)} FAILED"
    print(summary)
    if args.json is not None:
        payload = result_payload(result, parallel=bool(args.parallel), store=store)
        path = dump_json(payload, args.json)
        print(f"wrote: {path}")
    return 0


def _cmd_campaign_example(args: argparse.Namespace) -> int:
    from repro.campaign import Campaign
    from repro.utils.serialization import dump_json as _dump

    plan = {
        "name": "example",
        "entries": [
            {
                "scenario": name,
                "points": args.points,
                "budget": args.budget,
                "seed": args.seed,
                "engines": ["model", "sim"],
            }
            for name in ("heterogeneous", "hotspot")
        ],
    }
    Campaign.from_dict(plan)  # validate before writing
    path = _dump(plan, args.output)
    print(f"wrote: {path}")
    print("run it with: repro-multicluster campaign run "
          f"{path} --parallel --progress")
    return 0


def _cmd_campaign_store(args: argparse.Namespace) -> int:
    import warnings

    from repro.store import ResultStore, merge_stores

    store = _campaign_store(args)
    if args.sync is not None and args.merge is not None:
        raise ValidationError("--sync and --merge are mutually exclusive")
    source_root = args.merge if args.merge is not None else args.sync
    if source_root is not None:
        source = ResultStore(source_root)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = merge_stores(store, source, move=args.merge is not None)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        print(f"{report.describe()} from {source.root}")
    if args.clear:
        removed = store.clear()
        print(f"removed {removed} records")
    if args.prune is not None:
        if args.prune < 0:
            raise ValidationError(f"--prune must be >= 0, got {args.prune}")
        removed = store.prune(args.prune)
        print(f"pruned {removed} records")
    if args.stats:
        print(store.describe_stats())
    else:
        print(store.describe())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.campaign import RetryPolicy
    from repro.service import serve

    if args.retries < 1:
        raise ValidationError(f"--retries must be >= 1, got {args.retries}")
    store = None if args.no_store else _campaign_store(args)
    retry = RetryPolicy(max_attempts=args.retries) if args.retries > 1 else None
    serve(args.host, args.port, store=store, retry=retry, max_workers=args.workers)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.campaign_command == "run":
        return _cmd_campaign_run(args)
    if args.campaign_command == "example":
        return _cmd_campaign_example(args)
    if args.campaign_command == "store":
        return _cmd_campaign_store(args)
    raise ValidationError(f"unknown campaign command {args.campaign_command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the ``repro-multicluster`` console script."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "table1":
            return _cmd_table1(args)
        if args.command in ("fig3", "fig4"):
            return _cmd_figure(args, args.command)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "saturation":
            return _cmd_saturation(args)
        if args.command == "ablation":
            return _cmd_ablation(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "serve":
            return _cmd_serve(args)
        parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except CampaignExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    return 0  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
