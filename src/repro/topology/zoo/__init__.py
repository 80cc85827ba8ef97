"""The topology zoo: compiled topologies beyond the paper's fat-tree.

Importing this package registers the built-in families (k-ary pod
fat-tree, depth/fanout tree, 2-D torus) with the
:class:`~repro.topology.zoo.spec.TopologySpec` registry.
"""

from repro.topology.zoo.compile import (
    ZooSystem,
    clear_zoo_compile_caches,
    compile_graph,
)
from repro.topology.zoo.graphs import (
    FanoutTree,
    GraphSwitch,
    Host,
    KAryFatTree,
    Torus2D,
    ZooTopology,
)
from repro.topology.zoo.spec import (
    TopologySpec,
    build_topology,
    register_topology,
    zoo_kinds,
)

__all__ = [
    "FanoutTree",
    "GraphSwitch",
    "Host",
    "KAryFatTree",
    "Torus2D",
    "TopologySpec",
    "ZooSystem",
    "ZooTopology",
    "build_topology",
    "clear_zoo_compile_caches",
    "compile_graph",
    "register_topology",
    "zoo_kinds",
]
