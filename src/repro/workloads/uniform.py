"""Uniform destination distribution (assumption 2 of the paper)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.topology.multicluster import MultiClusterSystem
from repro.workloads.base import DestinationSample, TrafficPattern


class UniformTraffic(TrafficPattern):
    """Every other node of the whole system is an equally likely destination."""

    def sample_destination(
        self,
        rng: np.random.Generator,
        system: MultiClusterSystem,
        source_cluster: int,
        source_node: int,
    ) -> DestinationSample:
        source_global = system.global_index(source_cluster, source_node)
        # Draw from N-1 slots and skip over the source's own slot.
        draw = int(rng.integers(0, system.total_nodes - 1))
        if draw >= source_global:
            draw += 1
        dest_cluster, dest_node = system.locate(draw)
        return DestinationSample(dest_cluster, dest_node)

    def sample_destinations(
        self,
        rngs: Sequence[np.random.Generator],
        system: MultiClusterSystem,
        source_clusters: Sequence[int],
        source_nodes: Sequence[int],
        counts: Sequence[int],
    ) -> "tuple[np.ndarray, np.ndarray]":
        offsets = system.node_offsets
        bound = system.total_nodes - 1
        draws = np.empty(sum(counts), dtype=np.int64)
        end = 0
        for rng, count in zip(rngs, counts):
            if count:
                # One sized draw consumes the stream exactly like `count`
                # scalar draws, so each element matches the sequential path.
                start, end = end, end + count
                draws[start:end] = rng.integers(0, bound, size=count)
        draws += draws >= np.repeat(offsets[source_clusters] + source_nodes, counts)
        clusters = np.searchsorted(offsets, draws, side="right") - 1
        return clusters, draws - offsets[clusters]

    def describe(self) -> str:
        return "uniform"
