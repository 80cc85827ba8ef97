"""Uniform destination distribution (assumption 2 of the paper)."""

from __future__ import annotations

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

    def describe(self) -> str:
        return "uniform"
