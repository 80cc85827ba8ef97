"""Zoo topologies lowered through the multi-cluster system's classes.

A zoo topology compiles exactly like the paper's system, through
:mod:`repro.topology.compile`:

* :func:`compile_graph` lowers its graph to dense channel ids with
  :class:`~repro.topology.compile.CompiledNetwork`, the class that lowers
  each m-port n-tree;
* :class:`ZooSystem` addresses its hosts as one cluster, with the
  :class:`~repro.topology.multicluster.NodeLayout` every system shares;
* :func:`~repro.topology.compile.compile_system` lays the graph out as that
  cluster's ICN1, with no ECN1 and no ICN2.  With one cluster no message is
  ever external, so the ECN1/ICN2/relay machinery of the kernels is never
  exercised — the flat hot path itself runs unchanged, instruction for
  instruction.

Both are cached per full topology *identity* (kind plus every constructor
parameter), never per bare shape tuple, so two families whose parameters
collide numerically can never serve each other's channels.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.topology.compile import CompiledNetwork
from repro.topology.multicluster import NodeLayout
from repro.topology.zoo.graphs import Host
from repro.topology.zoo.spec import TopologySpec, build_topology, clear_shared_topologies
from repro.utils.cache import cached

__all__ = [
    "ZooCluster",
    "ZooSystem",
    "compile_graph",
    "clear_zoo_compile_caches",
]


class ZooCluster:
    """The single cluster a zoo topology's hosts form."""

    __slots__ = ("index", "num_nodes")

    def __init__(self, num_nodes: int) -> None:
        self.index = 0
        self.num_nodes = num_nodes

    def nodes(self):
        for index in range(self.num_nodes):
            yield Host(index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZooCluster(nodes={self.num_nodes})"


class ZooSystem(NodeLayout):
    """A zoo topology's hosts, addressed as one cluster.

    The addressing is :class:`~repro.topology.multicluster.NodeLayout`'s, so
    the traffic patterns, the stream pool and both simulator kernels run
    unmodified.
    """

    def __init__(self, spec: TopologySpec) -> None:
        self.spec = spec
        self.topology = build_topology(spec)
        super().__init__([ZooCluster(self.topology.num_nodes)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZooSystem({self.topology.name}, N={self.total_nodes})"


_COMPILED_GRAPHS: Dict[Tuple[Any, ...], CompiledNetwork] = {}


def compile_graph(spec: TopologySpec) -> CompiledNetwork:
    """The (cached) compiled channel ids of ``spec``, keyed by identity."""
    return cached(_COMPILED_GRAPHS, spec.identity, lambda: CompiledNetwork(build_topology(spec)))


def clear_zoo_compile_caches() -> None:
    """Drop all compiled zoo artifacts (test isolation hook)."""
    _COMPILED_GRAPHS.clear()
    clear_shared_topologies()
