"""Compilation of zoo topologies into the flat-array hot-path representation.

Mirror of :mod:`repro.topology.compile` for zoo members:

* :class:`CompiledGraph` assigns every directed channel of one
  :class:`~repro.topology.zoo.graphs.ZooTopology` a dense id (the
  enumeration order of :meth:`ZooTopology.channels`) and emits the same
  four flat metadata arrays a :class:`~repro.topology.compile.CompiledTree`
  carries.
* :class:`CompiledZooSystem` wraps one compiled graph in the
  :class:`~repro.topology.compile.CompiledSystem` surface the simulator
  kernels consume: a single degenerate cluster holding every host, an
  empty relay block, and a pool layout in which pool 0 is the whole
  network.  With one cluster no message is ever external, so the
  ECN1/ICN2/relay machinery of the kernels is never exercised — the flat
  hot path itself runs unchanged, instruction for instruction.

Both artifacts are cached per full topology *identity* (kind plus every
constructor parameter), never per bare shape tuple, so two families whose
parameters collide numerically can never serve each other's arrays.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.topology.compile import KIND_CODES
from repro.topology.fat_tree import Channel
from repro.topology.zoo.graphs import Host, ZooTopology
from repro.topology.zoo.spec import TopologySpec, build_topology, clear_shared_topologies
from repro.utils.validation import ValidationError

__all__ = [
    "CompiledGraph",
    "CompiledZooSystem",
    "ZooCluster",
    "ZooSystem",
    "compile_graph",
    "compile_zoo_system",
    "clear_zoo_compile_caches",
]


class CompiledGraph:
    """One zoo topology lowered to dense channel ids and flat arrays.

    Same array surface as :class:`~repro.topology.compile.CompiledTree`:
    hosts keep their dense index as entity id, switch ``s`` becomes
    ``num_nodes + s``.
    """

    __slots__ = (
        "token",
        "num_nodes",
        "num_switches",
        "num_channels",
        "channels",
        "channel_ids",
        "kind_codes",
        "is_node_channel",
        "source_ids",
        "target_ids",
    )

    def __init__(self, topology: ZooTopology, token: str = "") -> None:
        self.token = token or topology.name
        self.num_nodes = topology.num_nodes
        self.num_switches = topology.num_switches
        channels: List[Channel] = list(topology.channels())
        if len(channels) != topology.num_channels:
            raise ValidationError(
                f"channel enumeration produced {len(channels)} channels, "
                f"expected {topology.num_channels}"
            )  # pragma: no cover - structural invariant
        self.num_channels = len(channels)
        self.channels = tuple(channels)
        self.channel_ids = {channel: cid for cid, channel in enumerate(channels)}

        def entity_id(entity) -> int:
            if isinstance(entity, Host):
                return entity.index
            return self.num_nodes + entity.index

        self.kind_codes = np.fromiter(
            (KIND_CODES[channel.kind] for channel in channels),
            dtype=np.uint8,
            count=self.num_channels,
        )
        self.is_node_channel = np.fromiter(
            (channel.kind.is_node_channel for channel in channels),
            dtype=np.bool_,
            count=self.num_channels,
        )
        self.source_ids = np.fromiter(
            (entity_id(channel.source) for channel in channels),
            dtype=np.int32,
            count=self.num_channels,
        )
        self.target_ids = np.fromiter(
            (entity_id(channel.target) for channel in channels),
            dtype=np.int32,
            count=self.num_channels,
        )

    def index_of(self, channel: Channel) -> int:
        """Dense id of ``channel`` (raises for channels of another topology)."""
        try:
            return self.channel_ids[channel]
        except KeyError:
            raise ValidationError(
                f"{channel!r} is not a channel of {self.token}"
            ) from None

    def channel_at(self, cid: int) -> Channel:
        """Decompile a dense id back into its :class:`Channel`."""
        if not 0 <= cid < self.num_channels:
            raise ValidationError(
                f"channel id {cid} out of range [0, {self.num_channels})"
            )
        return self.channels[cid]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledGraph({self.token}, channels={self.num_channels})"


class ZooCluster:
    """The single degenerate cluster a zoo topology compiles into."""

    __slots__ = ("index", "num_nodes")

    def __init__(self, num_nodes: int) -> None:
        self.index = 0
        self.num_nodes = num_nodes

    def nodes(self):
        for index in range(self.num_nodes):
            yield Host(index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZooCluster(nodes={self.num_nodes})"


class ZooSystem:
    """One-cluster system facade over a zoo topology.

    Duck-types the node-addressing surface of
    :class:`~repro.topology.multicluster.MultiClusterSystem` (cluster
    lookup, global/local index mapping, ``node_offsets``) so the traffic
    patterns, the stream pool and both simulator kernels run unmodified.
    """

    def __init__(self, spec: TopologySpec) -> None:
        self.spec = spec
        self.topology = build_topology(spec)
        self.clusters = [ZooCluster(self.topology.num_nodes)]
        self._node_offsets: "np.ndarray | None" = None

    @property
    def num_clusters(self) -> int:
        return 1

    @property
    def total_nodes(self) -> int:
        return self.clusters[0].num_nodes

    @property
    def cluster_sizes(self) -> Tuple[int, ...]:
        return (self.total_nodes,)

    def cluster(self, index: int) -> ZooCluster:
        if index != 0:
            raise ValidationError(f"cluster index {index} out of range [0, 1)")
        return self.clusters[0]

    def global_index(self, cluster_index: int, local_index: int) -> int:
        self.cluster(cluster_index)
        if not 0 <= local_index < self.total_nodes:
            raise ValidationError(
                f"local index {local_index} out of range [0, {self.total_nodes})"
            )
        return local_index

    def locate(self, global_index: int) -> Tuple[int, int]:
        if not 0 <= global_index < self.total_nodes:
            raise ValidationError(
                f"global index {global_index} out of range [0, {self.total_nodes})"
            )
        return 0, global_index

    def cluster_of(self, global_index: int) -> int:
        return self.locate(global_index)[0]

    @property
    def node_offsets(self) -> np.ndarray:
        offsets = self._node_offsets
        if offsets is None:
            offsets = np.asarray([0], dtype=np.int64)
            offsets.setflags(write=False)
            self._node_offsets = offsets
        return offsets

    def nodes(self):
        for node in self.clusters[0].nodes():
            yield 0, node

    def same_cluster(self, global_a: int, global_b: int) -> bool:
        self.locate(global_a)
        self.locate(global_b)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZooSystem({self.topology.name}, N={self.total_nodes})"


class CompiledZooSystem:
    """A zoo topology presented through the compiled-system surface.

    Slot layout: the graph's channels occupy slots ``0 .. num_channels``,
    followed by one concentrator and one dispatcher pseudo-slot — the
    ``C = 1`` relay block both kernels expect to exist.  No zoo route ever
    includes them (every message is intra-cluster), so they are never
    granted and never reported.  ``num_pools`` is 4 — matching the
    ``2C + 2`` layout at ``C = 1`` that both kernels size their per-pool
    structures by — with every channel in pool 0.
    """

    #: report keys used by channel-utilisation aggregation; with a single
    #: cluster only the first (the whole network) ever appears.
    utilisation_labels = ("network", "external", "crossing", "relays")

    __slots__ = (
        "spec",
        "system",
        "graph",
        "concentrator_base",
        "dispatcher_base",
        "total_slots",
        "num_pools",
        "is_node_channel_list",
        "pool_index_list",
        "pool_labels",
    )

    def __init__(self, spec: TopologySpec) -> None:
        self.spec = spec
        self.system = ZooSystem(spec)
        self.graph = compile_graph(spec)
        channels = self.graph.num_channels
        self.concentrator_base = channels
        self.dispatcher_base = channels + 1
        self.total_slots = channels + 2
        self.num_pools = 4
        self.pool_labels = ("network", "unused/external", "unused/crossing", "relays")
        self.pool_index_list = [0] * channels + [3, 3]
        self.is_node_channel_list = [
            bool(flag) for flag in self.graph.is_node_channel
        ] + [False, False]

    def header_times(self, t_cn: float, t_cs: float) -> List[float]:
        """Per-slot header (per-flit) times for one link timing."""
        return [t_cn if is_node else t_cs for is_node in self.is_node_channel_list]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledZooSystem({self.spec.token}, slots={self.total_slots})"


_COMPILED_GRAPHS: Dict[Tuple[Any, ...], CompiledGraph] = {}
_COMPILED_ZOO_SYSTEMS: Dict[Tuple[Any, ...], CompiledZooSystem] = {}

#: Same wholesale-clear policy as the fat-tree compile caches: a sweep over
#: many zoo organisations must not pin them all for the process lifetime.
_ZOO_CACHE_LIMIT = 64


def compile_graph(spec: TopologySpec) -> CompiledGraph:
    """The (cached) compiled channel arrays of ``spec``, keyed by identity."""
    key = spec.identity
    compiled = _COMPILED_GRAPHS.get(key)
    if compiled is None:
        if len(_COMPILED_GRAPHS) >= _ZOO_CACHE_LIMIT:
            _COMPILED_GRAPHS.clear()
        compiled = _COMPILED_GRAPHS[key] = CompiledGraph(
            build_topology(spec), spec.token
        )
    return compiled


def compile_zoo_system(spec: TopologySpec) -> CompiledZooSystem:
    """The (cached) compiled-system facade of ``spec``."""
    key = spec.identity
    compiled = _COMPILED_ZOO_SYSTEMS.get(key)
    if compiled is None:
        if len(_COMPILED_ZOO_SYSTEMS) >= _ZOO_CACHE_LIMIT:
            _COMPILED_ZOO_SYSTEMS.clear()
        compiled = _COMPILED_ZOO_SYSTEMS[key] = CompiledZooSystem(spec)
    return compiled


def clear_zoo_compile_caches() -> None:
    """Drop all compiled zoo artifacts (test isolation hook)."""
    _COMPILED_GRAPHS.clear()
    _COMPILED_ZOO_SYSTEMS.clear()
    clear_shared_topologies()
