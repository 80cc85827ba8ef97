"""Hot-spot traffic: a fraction of the messages targets one hot cluster/node."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.topology.multicluster import MultiClusterSystem
from repro.utils.validation import ValidationError, check_in_range
from repro.workloads.base import DestinationSample, TrafficPattern
from repro.workloads.uniform import UniformTraffic


class HotspotTraffic(TrafficPattern):
    """With probability ``fraction`` the destination lies in the hot cluster.

    Parameters
    ----------
    hot_cluster:
        Index of the cluster receiving the extra traffic.
    fraction:
        Probability that a message is hot-spot directed (0 disables the
        hot spot and reduces to uniform traffic).
    hot_node:
        Optional local node index inside the hot cluster.  When given, hot
        messages all target that single node (a server hot spot); otherwise
        they spread uniformly over the hot cluster's nodes (a storage or
        I/O-cluster hot spot).
    """

    def __init__(self, hot_cluster: int, fraction: float, hot_node: int | None = None) -> None:
        check_in_range(fraction, 0.0, 1.0, "fraction")
        self.hot_cluster = int(hot_cluster)
        self.fraction = float(fraction)
        self.hot_node = hot_node if hot_node is None else int(hot_node)
        self._uniform = UniformTraffic()

    def _hot_cluster_nodes(self, system: MultiClusterSystem) -> int:
        """Node count of the hot cluster, after checking ``hot_node`` fits it."""
        hot = system.cluster(self.hot_cluster)
        if self.hot_node is not None and not 0 <= self.hot_node < hot.num_nodes:
            raise ValidationError(
                f"hot node {self.hot_node} out of range for cluster {self.hot_cluster}"
            )
        return hot.num_nodes

    def sample_destination(
        self,
        rng: np.random.Generator,
        system: MultiClusterSystem,
        source_cluster: int,
        source_node: int,
    ) -> DestinationSample:
        hot_nodes = self._hot_cluster_nodes(system)
        if rng.random() >= self.fraction:
            return self._uniform.sample_destination(
                rng, system, source_cluster, source_node
            )
        if self.hot_node is not None:
            node = self.hot_node
            if source_cluster == self.hot_cluster and node == source_node:
                # The hot node never sends to itself; fall back to uniform.
                return self._uniform.sample_destination(
                    rng, system, source_cluster, source_node
                )
            return DestinationSample(self.hot_cluster, node)
        # Uniform over the hot cluster's nodes, excluding the source if it
        # happens to live there.
        if source_cluster == self.hot_cluster:
            draw = int(rng.integers(0, hot_nodes - 1))
            if draw >= source_node:
                draw += 1
        else:
            draw = int(rng.integers(0, hot_nodes))
        return DestinationSample(self.hot_cluster, draw)

    def sample_destinations(
        self,
        rngs: Sequence[np.random.Generator],
        system: MultiClusterSystem,
        source_clusters: Sequence[int],
        source_nodes: Sequence[int],
        counts: Sequence[int],
    ) -> "tuple[np.ndarray, np.ndarray]":
        # The draws interleave random() and bounded integers() on one
        # stream, so they stay scalar: the same calls in the same order as
        # sample_destination, with the lookups hoisted and each destination
        # kept as a global index.
        hot_nodes = self._hot_cluster_nodes(system)
        offsets = system.node_offsets
        hot_base = int(offsets[self.hot_cluster])
        uniform_bound = system.total_nodes - 1
        hot_node = self.hot_node
        fraction = self.fraction
        draws = []
        append = draws.append
        for rng, cluster, node, count in zip(rngs, source_clusters, source_nodes, counts):
            random = rng.random
            integers = rng.integers
            source = int(offsets[cluster]) + node
            in_hot = cluster == self.hot_cluster
            is_hot_node = in_hot and node == hot_node
            for _ in range(count):
                # random() comes first even for the hot node, which falls
                # back to uniform after drawing it, as in the scalar path.
                if random() >= fraction or is_hot_node:
                    draw = int(integers(0, uniform_bound))
                    append(draw + (draw >= source))
                elif hot_node is not None:
                    append(hot_base + hot_node)
                elif in_hot:
                    draw = int(integers(0, hot_nodes - 1))
                    append(hot_base + draw + (draw >= node))
                else:
                    append(hot_base + int(integers(0, hot_nodes)))
        targets = np.asarray(draws, dtype=np.int64)
        clusters = np.searchsorted(offsets, targets, side="right") - 1
        return clusters, targets - offsets[clusters]

    def describe(self) -> str:
        target = f"cluster {self.hot_cluster}"
        if self.hot_node is not None:
            target += f", node {self.hot_node}"
        return f"hotspot({target}, fraction={self.fraction:g})"
