"""Topology compilation: dense integer channel ids and flat metadata arrays.

The object-graph topology layer (:class:`~repro.topology.fat_tree.MPortNTree`
and friends) is the *source of truth*: readable, validated, and exactly the
representation the analytical model reasons about.  But it is a poor hot-path
representation — every :class:`Channel` is a frozen dataclass whose hash
walks nested address tuples, so keying per-channel simulation state on
``Channel`` objects costs a rehash per hop per message.

This module compiles that object graph **once** into dense integer ids:

* :class:`CompiledTree` assigns every directed channel of one m-port n-tree
  a dense id (the enumeration order of :meth:`MPortNTree.channels`) and
  emits flat NumPy metadata arrays (endpoint ids, channel kind, node-channel
  flags).  Compiled trees depend only on the shape ``(m, n)`` — channel
  objects carry no tree name — so one compiled tree is shared by every
  same-shape ICN1/ECN1/ICN2 instance via a module-level cache.
  :func:`node_channel_ids` and :func:`up_channel_id` state the same id
  layout in closed form, so the route-table kernel computes ids with array
  arithmetic instead of hashing :class:`Channel` objects.
* :class:`CompiledSystem` lays the channels of every network of a
  :class:`MultiClusterSystem` into one global id space (one block per
  network, plus one pseudo-channel slot per concentrator and dispatcher
  unit) and emits system-wide metadata arrays.  Compiled systems are cached
  per :class:`MultiClusterSpec`, so a sweep compiles once and every worker
  process compiles at most once.

The simulator's flat-array hot path (:mod:`repro.sim.network`,
:mod:`repro.sim.simulator`) and the compiled route tables
(:mod:`repro.routing.compile`) are both expressed in these ids.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.topology.fat_tree import (
    Channel,
    ChannelKind,
    FatTreeNode,
    FatTreeSwitch,
    MPortNTree,
    shared_tree,
)
from repro.topology.multicluster import MultiClusterSpec, MultiClusterSystem
from repro.utils.validation import ValidationError

__all__ = [
    "Topology",
    "CompiledTree",
    "CompiledSystem",
    "compile_tree",
    "compile_system",
    "clear_compile_caches",
    "node_channel_ids",
    "up_channel_id",
    "KIND_CODES",
]


@runtime_checkable
class Topology(Protocol):
    """The minimal surface a network must expose to be compilable.

    :class:`MPortNTree` satisfies this structurally; alternative topologies
    (e.g. a torus backend) only need dense node indices and a deterministic
    channel enumeration to plug into the same compilation pass.
    """

    name: str

    @property
    def num_nodes(self) -> int: ...

    @property
    def num_channels(self) -> int: ...

    def channels(self) -> Iterator[Channel]: ...


#: Stable integer code per channel kind (order matches the enum declaration).
KIND_CODES: Dict[ChannelKind, int] = {
    ChannelKind.INJECTION: 0,
    ChannelKind.EJECTION: 1,
    ChannelKind.UP: 2,
    ChannelKind.DOWN: 3,
}


class CompiledTree:
    """One m-port n-tree lowered to dense channel ids and flat arrays.

    Attributes
    ----------
    channels:
        Channel objects in id order (``channels[cid]`` decompiles ``cid``).
    channel_ids:
        The inverse mapping ``Channel -> cid``.
    kind_codes / is_node_channel:
        Per-channel metadata arrays (``KIND_CODES`` values; True on
        injection/ejection channels, whose per-flit time is ``t_cn``).
    source_ids / target_ids:
        Per-channel endpoint ids: processing nodes keep their dense index,
        switch ``s`` becomes ``num_nodes + switch_id`` with switch ids in
        :meth:`MPortNTree.switches` enumeration order.
    """

    __slots__ = (
        "m",
        "n",
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

    def __init__(self, tree: MPortNTree) -> None:
        self.m = tree.m
        self.n = tree.n
        self.num_nodes = tree.num_nodes
        self.num_switches = tree.num_switches
        switch_ids: Dict[FatTreeSwitch, int] = {
            switch: index for index, switch in enumerate(tree.switches())
        }
        channels: List[Channel] = list(tree.channels())
        if len(channels) != tree.num_channels:
            raise ValidationError(
                f"channel enumeration produced {len(channels)} channels, "
                f"expected {tree.num_channels}"
            )  # pragma: no cover - structural invariant
        self.num_channels = len(channels)
        self.channels = tuple(channels)
        self.channel_ids = {channel: cid for cid, channel in enumerate(channels)}

        def entity_id(entity) -> int:
            if isinstance(entity, FatTreeNode):
                return entity.index
            return self.num_nodes + switch_ids[entity]

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
        """Dense id of ``channel`` (raises for channels of another shape)."""
        try:
            return self.channel_ids[channel]
        except KeyError:
            raise ValidationError(
                f"{channel!r} is not a channel of a {self.m}-port {self.n}-tree"
            ) from None

    def channel_at(self, cid: int) -> Channel:
        """Decompile a dense id back into its :class:`Channel`."""
        if not 0 <= cid < self.num_channels:
            raise ValidationError(
                f"channel id {cid} out of range [0, {self.num_channels})"
            )
        return self.channels[cid]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledTree(m={self.m}, n={self.n}, channels={self.num_channels})"
        )


# The closed form of the CompiledTree id layout.  MPortNTree.channels()
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


_COMPILED_TREES: Dict[Tuple[int, int], CompiledTree] = {}


def compile_tree(m: int, n: int) -> CompiledTree:
    """The (cached) compiled form of the ``(m, n)`` tree shape."""
    key = (int(m), int(n))
    compiled = _COMPILED_TREES.get(key)
    if compiled is None:
        compiled = _COMPILED_TREES[key] = CompiledTree(shared_tree(m, n))
    return compiled


class CompiledSystem:
    """A :class:`MultiClusterSystem` lowered to one global channel-id space.

    The id space is laid out block by block::

        [cluster0 ICN1][cluster0 ECN1][cluster1 ICN1] ... [ICN2]
        [concentrator slots (C)][dispatcher slots (C)]

    The concentrator/dispatcher units are *pseudo-channels*: they contend
    like a capacity-1 channel with a switch-channel service time.

    Besides the block offsets, the compiled system exposes flat metadata
    over the whole slot space (``is_node_channel_list``, ``pool_index_list``)
    as plain Python lists: the simulator indexes them per hop, and scalar
    indexing of a list is several times faster than scalar indexing of a
    NumPy array (the per-tree NumPy metadata arrays live on
    :class:`CompiledTree`).

    Pool indexing (one pool per network, used by utilisation reporting):
    pool ``c`` is cluster ``c``'s ICN1, pool ``C + c`` its ECN1, pool ``2C``
    the ICN2, and pool ``2C + 1`` the relay pseudo-pool (reported
    separately, via per-slot grant counts).
    """

    #: report keys the kernels use for channel-utilisation aggregation, in
    #: pool-layout order (per-cluster pools, ICN2 pool, relay slots); the
    #: zoo facade overrides them with its own labels.
    utilisation_labels = ("ICN1", "ECN1", "ICN2", "concentrators")

    __slots__ = (
        "spec",
        "system",
        "icn1_trees",
        "ecn1_trees",
        "icn2_tree",
        "icn1_offsets",
        "ecn1_offsets",
        "icn2_offset",
        "concentrator_base",
        "dispatcher_base",
        "total_slots",
        "num_pools",
        "is_node_channel_list",
        "pool_index_list",
        "pool_labels",
    )

    def __init__(self, spec: MultiClusterSpec) -> None:
        self.spec = spec
        self.system = MultiClusterSystem(spec)
        clusters = self.system.clusters
        num_clusters = len(clusters)

        self.icn1_trees: Tuple[CompiledTree, ...] = tuple(
            compile_tree(spec.m, cluster.height) for cluster in clusters
        )
        self.ecn1_trees: Tuple[CompiledTree, ...] = self.icn1_trees  # same shapes
        self.icn2_tree = compile_tree(spec.m, spec.icn2_height)

        icn1_offsets: List[int] = []
        ecn1_offsets: List[int] = []
        pool_labels: List[str] = []
        offset = 0
        pool_of_slot: List[int] = []
        node_flag: List[bool] = []

        def add_block(tree: CompiledTree, pool: int) -> int:
            nonlocal offset
            start = offset
            pool_of_slot.extend([pool] * tree.num_channels)
            node_flag.extend(bool(flag) for flag in tree.is_node_channel)
            offset += tree.num_channels
            return start

        for index in range(num_clusters):
            icn1_offsets.append(add_block(self.icn1_trees[index], index))
            pool_labels.append(f"cluster{index}/ICN1")
        for index in range(num_clusters):
            ecn1_offsets.append(add_block(self.ecn1_trees[index], num_clusters + index))
            pool_labels.append(f"cluster{index}/ECN1")
        self.icn2_offset = add_block(self.icn2_tree, 2 * num_clusters)
        pool_labels.append("ICN2")

        relay_pool = 2 * num_clusters + 1
        self.concentrator_base = offset
        pool_of_slot.extend([relay_pool] * num_clusters)
        node_flag.extend([False] * num_clusters)
        offset += num_clusters
        self.dispatcher_base = offset
        pool_of_slot.extend([relay_pool] * num_clusters)
        node_flag.extend([False] * num_clusters)
        offset += num_clusters
        pool_labels.append("relays")

        self.icn1_offsets = tuple(icn1_offsets)
        self.ecn1_offsets = tuple(ecn1_offsets)
        self.total_slots = offset
        # ICN1s + ECN1s + ICN2 + the relay pseudo-pool, so per-pool
        # structures sized by num_pools can be indexed with the pool of
        # *any* slot, relay slots included.
        self.num_pools = 2 * num_clusters + 2
        self.pool_labels = tuple(pool_labels)
        self.pool_index_list = pool_of_slot
        self.is_node_channel_list = node_flag

    # ------------------------------------------------------------- id helpers
    def concentrator_slot(self, cluster_index: int) -> int:
        """Global slot id of cluster ``cluster_index``'s concentrator unit."""
        self.spec._check_cluster(cluster_index)
        return self.concentrator_base + cluster_index

    def dispatcher_slot(self, cluster_index: int) -> int:
        """Global slot id of cluster ``cluster_index``'s dispatcher unit."""
        self.spec._check_cluster(cluster_index)
        return self.dispatcher_base + cluster_index

    def header_times(self, t_cn: float, t_cs: float) -> List[float]:
        """Per-slot header (per-flit) times for one link timing.

        Node channels transfer a flit in ``t_cn`` (Eq. 14), switch channels
        and the relay pseudo-channels in ``t_cs`` (Eq. 15).
        """
        return [t_cn if is_node else t_cs for is_node in self.is_node_channel_list]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledSystem(C={self.spec.num_clusters}, m={self.spec.m}, "
            f"slots={self.total_slots})"
        )


_COMPILED_SYSTEMS: Dict[MultiClusterSpec, CompiledSystem] = {}

#: Compiled systems are a few MB each; a design-space sweep over many
#: distinct organisations must not pin them all for the process lifetime,
#: so the cache clears wholesale once it exceeds this many specs.
_COMPILED_SYSTEM_CACHE_LIMIT = 64


def compile_system(spec) -> CompiledSystem:
    """The (cached) compiled channel-id space of ``spec``.

    The cache is keyed by the frozen spec itself, so every sweep point, every
    engine and — because the cache is module level — every process-pool
    worker reuses one compilation per organisation.  ``spec`` may be a
    :class:`MultiClusterSpec` or a zoo
    :class:`~repro.topology.zoo.spec.TopologySpec`; zoo members compile to
    the same surface (a single degenerate cluster) through their own
    identity-keyed cache.
    """
    if not isinstance(spec, MultiClusterSpec):
        # Imported lazily: the zoo package builds on this module.
        from repro.topology.zoo.compile import compile_zoo_system

        return compile_zoo_system(spec)
    compiled = _COMPILED_SYSTEMS.get(spec)
    if compiled is None:
        if len(_COMPILED_SYSTEMS) >= _COMPILED_SYSTEM_CACHE_LIMIT:
            _COMPILED_SYSTEMS.clear()
        compiled = _COMPILED_SYSTEMS[spec] = CompiledSystem(spec)
    return compiled


def clear_compile_caches() -> None:
    """Drop all compiled trees/systems, zoo artifacts included."""
    _COMPILED_TREES.clear()
    _COMPILED_SYSTEMS.clear()
    from repro.topology.zoo.compile import clear_zoo_compile_caches

    clear_zoo_compile_caches()
