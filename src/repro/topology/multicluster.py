"""The heterogeneous multi-cluster system of Fig. 1.

A :class:`MultiClusterSystem` is made of ``C`` clusters.  Cluster ``i`` has
``N_i`` computing nodes and two communication networks of its own:

* the **ICN1** (intra-communication network) carries messages whose source
  and destination are both inside cluster ``i``;
* the **ECN1** (external communication network) carries the cluster's share
  of inter-cluster traffic — every node has a second network interface
  attached directly to the ECN1, so external messages never touch the ICN1.

The clusters are joined by a single global **ICN2** whose "processing nodes"
are the per-cluster concentrator/dispatcher units: an external message
ascends in the source cluster's ECN1, is concentrated onto the ICN2, crosses
it, and is dispatched into the destination cluster's ECN1 for the descending
phase.

All three network types are m-port n-trees with the *same* switch arity
``m``; heterogeneity enters through the per-cluster tree height ``n_i`` (and
therefore the cluster size ``N_i = 2 (m/2)^{n_i}``), exactly the category of
heterogeneity the paper models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.topology.fat_tree import FatTreeNode, MPortNTree
from repro.utils.validation import (
    ValidationError,
    check_even,
    check_positive_int,
)


@dataclass(frozen=True)
class ClusterSpec:
    """Shorthand for "``count`` clusters of tree height ``n``".

    Table 1 of the paper describes system organisations this way, e.g.
    ``n_i = 1`` for clusters 0-11, ``n_i = 2`` for clusters 12-27 and
    ``n_i = 3`` for clusters 28-31.
    """

    n: int
    count: int

    def __post_init__(self) -> None:
        check_positive_int(self.n, "n")
        check_positive_int(self.count, "count")

    def heights(self) -> List[int]:
        """Expand into one tree height per cluster."""
        return [self.n] * self.count


@dataclass(frozen=True)
class MultiClusterSpec:
    """Static description of a multi-cluster organisation.

    Parameters
    ----------
    m:
        Switch arity shared by every network in the system.
    cluster_heights:
        Tree height ``n_i`` of each cluster, one entry per cluster.  The
        number of clusters ``C = len(cluster_heights)`` must itself be a
        valid m-port tree size (``C = 2 (m/2)^{n_c}`` for an integer
        ``n_c``) because the concentrators are the processing nodes of the
        ICN2.
    name:
        Optional label (used in reports; Table 1 rows are labelled by their
        total node count).
    """

    m: int
    cluster_heights: Tuple[int, ...]
    name: str = ""

    def __post_init__(self) -> None:
        check_even(self.m, "m")
        if self.m < 2:
            raise ValidationError(f"m must be >= 2, got {self.m}")
        object.__setattr__(self, "cluster_heights", tuple(self.cluster_heights))
        if not self.cluster_heights:
            raise ValidationError("cluster_heights must not be empty")
        for index, height in enumerate(self.cluster_heights):
            check_positive_int(height, f"cluster_heights[{index}]")
        # The ICN2 must be able to host exactly C concentrators.
        self.icn2_height  # noqa: B018 - property performs the validation

    @staticmethod
    def from_groups(m: int, groups: Sequence[ClusterSpec], name: str = "") -> "MultiClusterSpec":
        """Build a spec from Table-1-style groups of identical clusters."""
        heights: List[int] = []
        for group in groups:
            heights.extend(group.heights())
        return MultiClusterSpec(m=m, cluster_heights=tuple(heights), name=name)

    # ------------------------------------------------------------------ sizes
    @property
    def num_clusters(self) -> int:
        """``C``, the number of clusters."""
        return len(self.cluster_heights)

    @property
    def k(self) -> int:
        """Half the switch arity (``m / 2``)."""
        return self.m // 2

    def cluster_size(self, index: int) -> int:
        """``N_i``, the number of nodes of cluster ``index``."""
        self._check_cluster(index)
        return 2 * self.k ** self.cluster_heights[index]

    @property
    def cluster_sizes(self) -> Tuple[int, ...]:
        """``(N_0, ..., N_{C-1})``."""
        return tuple(self.cluster_size(i) for i in range(self.num_clusters))

    @property
    def total_nodes(self) -> int:
        """``N``, the total number of computing nodes in the system."""
        return sum(self.cluster_sizes)

    @property
    def icn2_height(self) -> int:
        """``n_c``, the height of the ICN2 tree (from ``C = 2 (m/2)^{n_c}``)."""
        if self.num_clusters < 2:
            raise ValidationError("a multi-cluster system needs at least 2 clusters")
        size = 2
        for candidate in range(1, 65):
            size = 2 * self.k**candidate
            if size == self.num_clusters:
                return candidate
            if size > self.num_clusters:
                break
        raise ValidationError(
            f"C={self.num_clusters} is not a valid {self.m}-port tree size "
            f"(needs C = 2*(m/2)^n_c for integer n_c)"
        )

    @property
    def is_homogeneous(self) -> bool:
        """True when every cluster has the same size (the baseline case)."""
        return len(set(self.cluster_heights)) == 1

    def describe(self) -> str:
        """One-line summary in the style of Table 1."""
        groups: List[str] = []
        start = 0
        heights = self.cluster_heights
        for index in range(1, len(heights) + 1):
            if index == len(heights) or heights[index] != heights[start]:
                groups.append(f"n={heights[start]} for clusters [{start},{index - 1}]")
                start = index
        label = self.name or f"N={self.total_nodes}"
        return f"{label}: C={self.num_clusters}, m={self.m}, " + "; ".join(groups)

    def _check_cluster(self, index: int) -> None:
        if not 0 <= index < self.num_clusters:
            raise ValidationError(
                f"cluster index {index} out of range [0, {self.num_clusters})"
            )


@dataclass(frozen=True)
class Concentrator:
    """The concentrator/dispatcher unit of one cluster.

    It bridges the cluster's ECN1 and the global ICN2: outgoing traffic from
    the whole cluster is *concentrated* onto the concentrator's ICN2
    interface, incoming traffic is *dispatched* back into the ECN1.  On the
    ICN2 it occupies the processing-node slot ``icn2_node``.
    """

    cluster_index: int
    icn2_node: FatTreeNode


class Cluster:
    """One cluster of the system: its nodes plus its ICN1 and ECN1 trees."""

    def __init__(self, index: int, m: int, height: int) -> None:
        check_positive_int(height, "height")
        self.index = index
        self.height = height
        self.icn1 = MPortNTree(m, height, name=f"cluster{index}/ICN1")
        self.ecn1 = MPortNTree(m, height, name=f"cluster{index}/ECN1")

    @property
    def num_nodes(self) -> int:
        """``N_i`` for this cluster."""
        return self.icn1.num_nodes

    def nodes(self) -> Iterator[FatTreeNode]:
        """The cluster's processing nodes (local indices)."""
        return self.icn1.nodes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster(index={self.index}, n={self.height}, nodes={self.num_nodes})"


class NodeLayout:
    """Dense system-wide addressing of the nodes of a list of clusters.

    Cluster ``c`` holds ``clusters[c].num_nodes`` nodes, numbered globally
    after every node of the clusters before it.  Every system the simulator
    runs is one: a :class:`MultiClusterSystem`, and a zoo topology as the
    one-cluster :class:`~repro.topology.zoo.compile.ZooSystem`.  The
    analytical model, the traffic patterns, the stream pool and both
    simulator kernels address nodes through it.
    """

    def __init__(self, clusters: Iterable) -> None:
        self.clusters = list(clusters)
        self._offsets: List[int] = []
        offset = 0
        for cluster in self.clusters:
            self._offsets.append(offset)
            offset += cluster.num_nodes
        self._total_nodes = offset

    # ------------------------------------------------------------------ sizes
    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def total_nodes(self) -> int:
        """``N``, the total number of computing nodes."""
        return self._total_nodes

    @property
    def cluster_sizes(self) -> Tuple[int, ...]:
        return tuple(cluster.num_nodes for cluster in self.clusters)

    # --------------------------------------------------------- node addressing
    def cluster(self, index: int):
        if not 0 <= index < len(self.clusters):
            raise ValidationError(
                f"cluster index {index} out of range [0, {len(self.clusters)})"
            )
        return self.clusters[index]

    def global_index(self, cluster_index: int, local_index: int) -> int:
        """Dense system-wide index of node ``local_index`` of ``cluster_index``."""
        cluster = self.cluster(cluster_index)
        if not 0 <= local_index < cluster.num_nodes:
            raise ValidationError(
                f"local index {local_index} out of range [0, {cluster.num_nodes}) "
                f"for cluster {cluster_index}"
            )
        return self._offsets[cluster_index] + local_index

    def locate(self, global_index: int) -> Tuple[int, int]:
        """Map a dense system-wide node index back to ``(cluster, local index)``."""
        if not 0 <= global_index < self._total_nodes:
            raise ValidationError(
                f"global index {global_index} out of range [0, {self._total_nodes})"
            )
        # Linear scan over C clusters; C <= 32 in every paper configuration.
        for cluster_index in range(len(self.clusters) - 1, -1, -1):
            if global_index >= self._offsets[cluster_index]:
                return cluster_index, global_index - self._offsets[cluster_index]
        raise AssertionError("unreachable")  # pragma: no cover

    def cluster_of(self, global_index: int) -> int:
        """Cluster index of a dense system-wide node index."""
        return self.locate(global_index)[0]

    def nodes(self) -> Iterator[tuple]:
        """All nodes as ``(cluster_index, node)`` pairs, cluster by cluster."""
        for cluster in self.clusters:
            for node in cluster.nodes():
                yield cluster.index, node

    def same_cluster(self, global_a: int, global_b: int) -> bool:
        """True when two system-wide node indices belong to the same cluster."""
        return self.cluster_of(global_a) == self.cluster_of(global_b)


class MultiClusterSystem(NodeLayout):
    """A concrete heterogeneous multi-cluster system (Fig. 1).

    The system owns one :class:`Cluster` per entry of the spec, the global
    ICN2 tree and one :class:`Concentrator` per cluster; its node addressing
    is :class:`NodeLayout`'s.
    """

    def __init__(self, spec: MultiClusterSpec) -> None:
        self.spec = spec
        super().__init__(
            Cluster(index, spec.m, height)
            for index, height in enumerate(spec.cluster_heights)
        )
        self.icn2 = MPortNTree(spec.m, spec.icn2_height, name="ICN2")
        if self.icn2.num_nodes != spec.num_clusters:
            raise ValidationError(
                f"ICN2 hosts {self.icn2.num_nodes} concentrators but the system "
                f"has {spec.num_clusters} clusters"
            )
        self.concentrators: List[Concentrator] = [
            Concentrator(cluster_index=i, icn2_node=FatTreeNode(i))
            for i in range(spec.num_clusters)
        ]

    @property
    def total_switches(self) -> int:
        """Total switch count over every ICN1, ECN1 and the ICN2."""
        per_cluster = sum(
            cluster.icn1.num_switches + cluster.ecn1.num_switches
            for cluster in self.clusters
        )
        return per_cluster + self.icn2.num_switches

    def concentrator(self, cluster_index: int) -> Concentrator:
        self.spec._check_cluster(cluster_index)
        return self.concentrators[cluster_index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiClusterSystem(C={self.num_clusters}, m={self.spec.m}, "
            f"N={self.total_nodes}, heights={self.spec.cluster_heights})"
        )
