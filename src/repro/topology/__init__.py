"""Network topologies of the multi-cluster system.

The paper builds every communication network (the per-cluster ICN1 and ECN1
and the global ICN2) as an *m-port n-tree* fat tree [Lin 2003], a Clos-style
constant-bisection-bandwidth topology made of fixed-arity m-port switches:

* :mod:`repro.topology.fat_tree` — the m-port n-tree itself: node/switch
  addressing, channel enumeration, neighbourhood queries (Eq. 1-2);
* :mod:`repro.topology.multicluster` — the heterogeneous multi-cluster
  system of Fig. 1: ``C`` clusters with per-cluster ICN1/ECN1, a global ICN2
  whose "nodes" are the per-cluster concentrator/dispatcher units, and the
  Table 1 system organisations used in the validation study;
* :mod:`repro.topology.properties` — derived metrics (bisection width,
  diameter, link counts, distance distributions) used both by tests and by
  the design-space exploration example;
* :mod:`repro.topology.compile` — the compilation pass lowering each
  network to dense integer channel ids and a whole system to one slot
  layout (the representation the wormhole simulator's hot path runs on),
  for the multi-cluster system and the :mod:`repro.topology.zoo` alike.
"""

from repro.topology.fat_tree import (
    Channel,
    ChannelKind,
    FatTreeNode,
    FatTreeSwitch,
    MPortNTree,
    num_nodes_formula,
    num_switches_formula,
)
from repro.topology.multicluster import (
    Cluster,
    ClusterSpec,
    Concentrator,
    MultiClusterSystem,
    MultiClusterSpec,
)
from repro.topology.properties import (
    bisection_channels,
    channel_count,
    diameter,
    distance_histogram,
    link_count,
    mean_internode_distance,
)
from repro.topology.compile import (
    CompiledNetwork,
    CompiledSystem,
    compile_system,
    compile_tree,
)

__all__ = [
    "CompiledNetwork",
    "CompiledSystem",
    "compile_system",
    "compile_tree",
    "Channel",
    "ChannelKind",
    "FatTreeNode",
    "FatTreeSwitch",
    "MPortNTree",
    "num_nodes_formula",
    "num_switches_formula",
    "Cluster",
    "ClusterSpec",
    "Concentrator",
    "MultiClusterSystem",
    "MultiClusterSpec",
    "bisection_channels",
    "channel_count",
    "diameter",
    "distance_histogram",
    "link_count",
    "mean_internode_distance",
]
