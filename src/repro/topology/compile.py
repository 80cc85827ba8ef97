"""Topology compilation: dense integer channel ids and one slot layout.

The object-graph topology layer (:class:`~repro.topology.fat_tree.MPortNTree`
and the zoo's :class:`~repro.topology.zoo.graphs.ZooTopology`) is the
*source of truth*: readable, validated, and exactly the representation the
analytical model and the routers reason about.  But it is a poor hot-path
representation — every :class:`Channel` is a frozen dataclass whose hash
walks nested address tuples, so keying per-channel simulation state on
``Channel`` objects costs a rehash per hop per message.

This module compiles both topology families **once**, through the same two
classes:

* :class:`CompiledNetwork` assigns every directed channel of one network a
  dense id (the enumeration order of its ``channels()``) and flags the node
  channels.  :func:`compile_tree` builds it for an m-port n-tree shape,
  cached per ``(m, n)`` — channel objects carry no tree name, so one
  compiled tree serves every same-shape ICN1/ECN1/ICN2 — and
  :func:`repro.topology.zoo.compile.compile_graph` for a zoo topology,
  cached per spec identity.  :func:`node_channel_ids` and
  :func:`up_channel_id` state the tree id layout in closed form, so the
  route-table kernel computes ids with array arithmetic instead of hashing
  :class:`Channel` objects.
* :class:`CompiledSystem` lays the compiled networks of one system into one
  global slot space (one block per network, plus one pseudo-channel slot
  per concentrator and dispatcher unit).  :func:`compile_system` chooses the
  networks: each cluster's ICN1 and ECN1 and the ICN2 for a
  :class:`MultiClusterSpec`, the graph as the one ICN1 of a one-cluster
  system for a zoo :class:`~repro.topology.zoo.spec.TopologySpec`.
  Compiled systems are cached per spec, so a sweep compiles once and every
  worker process compiles at most once.

The simulator's flat-array hot path (:mod:`repro.sim.network`,
:mod:`repro.sim.simulator`) and the compiled route tables
(:mod:`repro.routing.compile`) are both expressed in these ids.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.topology.fat_tree import Channel, shared_tree
from repro.topology.multicluster import MultiClusterSpec, MultiClusterSystem, NodeLayout
from repro.utils.cache import cached
from repro.utils.validation import ValidationError

__all__ = [
    "CompiledNetwork",
    "CompiledSystem",
    "compile_tree",
    "compile_system",
    "clear_compile_caches",
    "node_channel_ids",
    "up_channel_id",
]

class CompiledNetwork:
    """One network lowered to dense channel ids.

    ``network`` is any object with ``channels()`` (its directed channels in
    a deterministic order), ``name``, ``num_nodes``, ``num_switches`` and
    ``num_channels``: an :class:`MPortNTree` or a zoo
    :class:`~repro.topology.zoo.graphs.ZooTopology`.

    Attributes
    ----------
    channels:
        Channel objects in id order (``channels[cid]`` decompiles ``cid``).
    channel_ids:
        The inverse mapping ``Channel -> cid``.
    is_node_channel:
        Per-channel flags, True on injection/ejection channels (whose
        per-flit time is ``t_cn``).
    """

    __slots__ = (
        "name",
        "num_nodes",
        "num_switches",
        "num_channels",
        "channels",
        "channel_ids",
        "is_node_channel",
    )

    def __init__(self, network: Any) -> None:
        self.name = network.name
        self.num_nodes = network.num_nodes
        self.num_switches = network.num_switches
        self.channels: Tuple[Channel, ...] = tuple(network.channels())
        if len(self.channels) != network.num_channels:
            raise ValidationError(
                f"channel enumeration produced {len(self.channels)} channels, "
                f"expected {network.num_channels}"
            )  # pragma: no cover - structural invariant
        self.num_channels = len(self.channels)
        self.channel_ids = {channel: cid for cid, channel in enumerate(self.channels)}
        self.is_node_channel = np.fromiter(
            (channel.kind.is_node_channel for channel in self.channels),
            dtype=np.bool_,
            count=self.num_channels,
        )

    def index_of(self, channel: Channel) -> int:
        """Dense id of ``channel`` (raises for channels of another network)."""
        try:
            return self.channel_ids[channel]
        except KeyError:
            raise ValidationError(f"{channel!r} is not a channel of {self.name}") from None

    def channel_at(self, cid: int) -> Channel:
        """Decompile a dense id back into its :class:`Channel`."""
        if not 0 <= cid < self.num_channels:
            raise ValidationError(
                f"channel id {cid} out of range [0, {self.num_channels})"
            )
        return self.channels[cid]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledNetwork({self.name}, channels={self.num_channels})"


# The closed form of a compiled tree's id layout.  MPortNTree.channels()
# yields each node's injection/ejection pair in node order, then, level by
# level, each non-root switch's up/down pairs in switch-rank order (the
# lexicographic order of ``switches_at_level``) and up-digit order.  A
# non-root level has N/k switches with k up-ports each, so every level adds
# 2N ids.  Both helpers are plain arithmetic and accept NumPy arrays.
def node_channel_ids(node):
    """``(injection id, ejection id)`` of processing node ``node``."""
    return 2 * node, 2 * node + 1


def up_channel_id(num_nodes: int, k: int, level, rank, digit):
    """Id of the up channel leaving a level-``level`` switch through ``digit``.

    ``rank`` is the switch's position in ``switches_at_level(level)``; the
    matching down channel (same link, reversed) has this id plus one.
    """
    return 2 * num_nodes * (1 + level) + 2 * (rank * k + digit)


_COMPILED_TREES: Dict[Tuple[int, int], CompiledNetwork] = {}


def compile_tree(m: int, n: int) -> CompiledNetwork:
    """The (cached) compiled form of the ``(m, n)`` tree shape."""
    return cached(_COMPILED_TREES, (int(m), int(n)), lambda: CompiledNetwork(shared_tree(m, n)))


class CompiledSystem:
    """The networks of one system laid out in one global channel-id space.

    The id space is laid out block by block::

        [ICN1 of cluster 0] ... [ICN1 of cluster C-1]
        [ECN1 of cluster 0] ... [ECN1 of cluster C-1] [ICN2]
        [concentrator slots (C)] [dispatcher slots (C)]

    ``system`` is the :class:`~repro.topology.multicluster.NodeLayout` of
    the ``C`` clusters.  A zoo topology passes no ``ecn1`` and no ``icn2``,
    so their blocks are empty.  The concentrator/dispatcher units are
    *pseudo-channels*: they contend like a capacity-1 channel with a
    switch-channel service time.

    Besides the block offsets, the compiled system exposes flat metadata
    over the whole slot space (``is_node_channel_list``, ``pool_index_list``)
    as plain Python lists: the simulator indexes them per hop, and scalar
    indexing of a list is several times faster than scalar indexing of a
    NumPy array.

    Pool indexing (one pool per network, used by utilisation reporting):
    pool ``c`` is cluster ``c``'s ICN1, pool ``C + c`` its ECN1, pool ``2C``
    the ICN2, and pool ``2C + 1`` the relay pseudo-pool (reported
    separately, via per-slot grant counts).  ``utilisation_labels`` are the
    report keys of the ICN1 pools, the ECN1 pools, the ICN2 pool and the
    relay slots, in that order.
    """

    __slots__ = (
        "spec",
        "system",
        "utilisation_labels",
        "icn1_offsets",
        "ecn1_offsets",
        "icn2_offset",
        "concentrator_base",
        "dispatcher_base",
        "total_slots",
        "is_node_channel_list",
        "pool_index_list",
    )

    def __init__(
        self,
        system: NodeLayout,
        utilisation_labels: Tuple[str, str, str, str],
        icn1: Sequence[CompiledNetwork],
        ecn1: Sequence[CompiledNetwork] = (),
        icn2: "CompiledNetwork | None" = None,
    ) -> None:
        self.spec = system.spec
        self.system = system
        self.utilisation_labels = utilisation_labels
        num_clusters = system.num_clusters
        pool_index: List[int] = []
        node_flag: List[bool] = []

        def add_block(network: CompiledNetwork, pool: int) -> int:
            start = len(pool_index)
            pool_index.extend([pool] * network.num_channels)
            node_flag.extend(network.is_node_channel.tolist())
            return start

        self.icn1_offsets = tuple(add_block(net, c) for c, net in enumerate(icn1))
        self.ecn1_offsets = tuple(
            add_block(net, num_clusters + c) for c, net in enumerate(ecn1)
        )
        self.icn2_offset = (
            len(pool_index) if icn2 is None else add_block(icn2, 2 * num_clusters)
        )
        self.concentrator_base = len(pool_index)
        self.dispatcher_base = self.concentrator_base + num_clusters
        pool_index.extend([2 * num_clusters + 1] * (2 * num_clusters))
        node_flag.extend([False] * (2 * num_clusters))
        self.total_slots = len(pool_index)
        self.pool_index_list = pool_index
        self.is_node_channel_list = node_flag

    # ------------------------------------------------------------- id helpers
    def concentrator_slot(self, cluster_index: int) -> int:
        """Global slot id of cluster ``cluster_index``'s concentrator unit."""
        self.system.cluster(cluster_index)
        return self.concentrator_base + cluster_index

    def dispatcher_slot(self, cluster_index: int) -> int:
        """Global slot id of cluster ``cluster_index``'s dispatcher unit."""
        self.system.cluster(cluster_index)
        return self.dispatcher_base + cluster_index

    def header_times(self, t_cn: float, t_cs: float) -> List[float]:
        """Per-slot header (per-flit) times for one link timing.

        Node channels transfer a flit in ``t_cn`` (Eq. 14), switch channels
        and the relay pseudo-channels in ``t_cs`` (Eq. 15).
        """
        return [t_cn if is_node else t_cs for is_node in self.is_node_channel_list]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledSystem({self.system!r}, slots={self.total_slots})"


_COMPILED_SYSTEMS: Dict[Any, CompiledSystem] = {}


def compile_system(spec) -> CompiledSystem:
    """The (cached) compiled slot layout of ``spec``.

    A :class:`MultiClusterSpec` brings one ICN1 and one ECN1 per cluster and
    the ICN2.  A zoo :class:`~repro.topology.zoo.spec.TopologySpec` brings
    its graph as the one ICN1 of a one-cluster system, with no ECN1 and no
    ICN2, so no message is ever external.  The cache is keyed by the frozen
    multi-cluster spec, or by the zoo spec's full identity, so every sweep
    point, every engine and — because the cache is module level — every
    process-pool worker reuses one compilation per organisation.
    """
    if isinstance(spec, MultiClusterSpec):

        def lower() -> CompiledSystem:
            trees = tuple(compile_tree(spec.m, height) for height in spec.cluster_heights)
            return CompiledSystem(
                MultiClusterSystem(spec),
                ("ICN1", "ECN1", "ICN2", "concentrators"),
                trees,
                trees,
                compile_tree(spec.m, spec.icn2_height),
            )

        return cached(_COMPILED_SYSTEMS, spec, lower)
    # Imported lazily: the zoo package builds on this module.
    from repro.topology.zoo.compile import ZooSystem, compile_graph

    return cached(
        _COMPILED_SYSTEMS,
        spec.identity,
        lambda: CompiledSystem(
            ZooSystem(spec), ("network", "external", "crossing", "relays"), (compile_graph(spec),)
        ),
    )


def clear_compile_caches() -> None:
    """Drop all compiled trees/systems, zoo artifacts included."""
    _COMPILED_TREES.clear()
    _COMPILED_SYSTEMS.clear()
    from repro.topology.zoo.compile import clear_zoo_compile_caches

    clear_zoo_compile_caches()
