#!/usr/bin/env python
"""Topology zoo: simulate networks beyond the paper's fat-tree.

The tour:

1. build each registered zoo family (fat-tree, tree, torus) from a
   ``TopologySpec`` and inspect the compiled graph,
2. trace a generalized up*/down* route through a torus,
3. sweep one simulated operating point per family through the unified
   ``repro.api`` and show why the analytical model stays out of it,
4. register a custom topology family and simulate it too.

Run it with::

    python examples/topology_zoo.py
"""

from repro import api
from repro.experiments import model_applicability
from repro.routing.updown import GraphUpDownRouter
from repro.topology.zoo import (
    Torus2D,
    TopologySpec,
    compile_graph,
    register_topology,
    zoo_kinds,
)
from repro.utils.tables import ResultTable


def main() -> None:
    # ----------------------------------------------------------- the families
    print(f"registered zoo kinds: {', '.join(sorted(zoo_kinds()))}")
    specs = [
        TopologySpec("fattree", {"k": 4}),
        TopologySpec("tree", {"depth": 2, "fanout": 4}),
        TopologySpec("torus", {"rows": 4, "cols": 4}),
    ]
    for spec in specs:
        graph = compile_graph(spec)
        print(f"  {spec.token:24s} {spec.describe()}, {graph.num_channels} compiled channels")
    print()

    # ------------------------------------------------- a route, hop by hop
    # Up*/down* generalizes to any graph with a spanning-tree orientation:
    # on the torus the orientation is BFS distance from switch 0, so a
    # route climbs toward the BFS root region, then descends.
    torus = Torus2D(4, 4)
    route = GraphUpDownRouter(torus).route(5, 10)
    print("torus(4x4) route, host 5 -> host 10:")
    for channel in route:
        print(f"  {channel.kind.name:10s} {channel.source} -> {channel.target}")
    print()

    # ------------------------------------------- one simulated point each
    table = ResultTable(
        headers=["scenario", "nodes", "latency", "model applies?"],
        title="One simulated operating point per zoo family",
    )
    for name in ("zoo/fattree4", "zoo/tree", "zoo/torus"):
        scenario = api.scenario(
            name, points=1, sim=api.simulation_budget("quick", 0)
        )
        report = model_applicability(scenario)
        # engines=("sim",): the paper's analytical model is derived for the
        # multicluster fat-tree family only; `repro-multicluster run` and
        # `compare` report this and drop the model engine automatically.
        runset = api.run(scenario, engines=("sim",))
        record = runset.series("sim")[0]
        table.add_row(
            name,
            str(scenario.topology.total_nodes),
            f"{record.latency:.1f}",
            "yes" if report.applicable else f"no ({report.topology})",
        )
    print(table.to_text())
    print()

    # ------------------------------------------------- bring your own family
    # A builder keyed by `kind` is all the registry needs; the compile
    # cache, routing and Scenario layer follow from the (kind, params)
    # identity.
    register_topology("square-torus", lambda side: Torus2D(side, side))
    scenario = api.Scenario(
        topology=TopologySpec("square-torus", {"side": 5}),
        offered_traffic=api.Scenario.load_grid(5.0e-4, 2),
        sim=api.simulation_budget("quick", 0),
        name="custom/square5",
    )
    record = api.SimulationEngine().evaluate(scenario, scenario.offered_traffic[0])
    print(
        f"custom square-torus(side=5): {scenario.topology.total_nodes} hosts, "
        f"latency={record.latency:.1f}"
    )
    print()
    print("Next steps: README.md 'Topology zoo' covers routing and how a zoo")
    print("network compiles as the one cluster of a multi-cluster layout;")
    print("tests/sim/test_golden_seed_zoo.py pins every family bit-identical")
    print("across both kernels.")


if __name__ == "__main__":
    main()
