"""Workload abstractions: destination patterns and arrival processes.

The scalar methods (:meth:`TrafficPattern.sample_destination`,
:meth:`ArrivalProcess.next_interarrival`) are the specification the
generator kernel draws with.  Their batched twins
(:meth:`TrafficPattern.sample_destinations`,
:meth:`ArrivalProcess.next_interarrivals`) serve the vectorized kernel's
pre-draw (:mod:`repro.workloads.batch`) and must consume each stream
exactly like the scalar calls they replace.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.topology.multicluster import MultiClusterSystem
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class DestinationSample:
    """A destination drawn by a traffic pattern: cluster index and local node index."""

    cluster: int
    node: int


class TrafficPattern(abc.ABC):
    """Chooses the destination of each generated message.

    Implementations must never return the source itself (assumption 2 sends
    every message to *another* node) and must stay within the system's node
    ranges; :meth:`validate_sample` is available to enforce both in tests.
    """

    @abc.abstractmethod
    def sample_destination(
        self,
        rng: np.random.Generator,
        system: MultiClusterSystem,
        source_cluster: int,
        source_node: int,
    ) -> DestinationSample:
        """Draw the destination of one message."""

    def sample_destinations(
        self,
        rngs: Sequence[np.random.Generator],
        system: MultiClusterSystem,
        source_clusters: Sequence[int],
        source_nodes: Sequence[int],
        counts: Sequence[int],
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Draw ``counts[s]`` destinations for every source ``s`` at once.

        The all-sources entry point of the vectorized kernel's pre-draw
        (:func:`repro.workloads.batch.predraw`): returns ``(clusters,
        nodes)`` int64 arrays, source after source, where source ``s`` is
        node ``source_nodes[s]`` of cluster ``source_clusters[s]`` and draws
        from ``rngs[s]``.  This default simply resumes
        :meth:`sample_destination`, so *any* pattern qualifies with
        bit-identical draws; subclasses override it with cheaper code.  The
        contract is absolute: each source's ``i``-th element must equal its
        ``i``-th scalar sample from the same generator state.
        """
        clusters = []
        nodes = []
        for rng, cluster, node, count in zip(rngs, source_clusters, source_nodes, counts):
            for _ in range(count):
                sample = self.sample_destination(rng, system, cluster, node)
                clusters.append(sample.cluster)
                nodes.append(sample.node)
        return np.asarray(clusters, dtype=np.int64), np.asarray(nodes, dtype=np.int64)

    def for_run(self, streams, system: MultiClusterSystem) -> "TrafficPattern":
        """The pattern one run draws with, given the run's named streams.

        Both kernels call this once per run, before any source draws, so a
        pattern with per-run state (a drawn permutation, say) can draw it
        from a stream of its own.  Stateless patterns return themselves.
        """
        return self

    def describe(self) -> str:
        """Human-readable name used in experiment reports."""
        return type(self).__name__

    @staticmethod
    def validate_sample(
        system: MultiClusterSystem,
        source_cluster: int,
        source_node: int,
        sample: DestinationSample,
    ) -> DestinationSample:
        """Raise if the sample is out of range or equal to the source."""
        cluster = system.cluster(sample.cluster)
        if not 0 <= sample.node < cluster.num_nodes:
            raise ValidationError(
                f"destination node {sample.node} out of range for cluster {sample.cluster}"
            )
        if sample.cluster == source_cluster and sample.node == source_node:
            raise ValidationError("destination equals the source node")
        return sample


class ArrivalProcess(abc.ABC):
    """Generates message inter-arrival times for one source node."""

    @abc.abstractmethod
    def next_interarrival(self, rng: np.random.Generator) -> float:
        """Time until the node generates its next message."""

    def next_interarrivals(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` inter-arrival gaps as a float64 array.

        Batched twin of :meth:`next_interarrival` with the same bit-identity
        contract as :meth:`TrafficPattern.sample_destinations`: element
        ``i`` must equal the ``i``-th sequential scalar draw.  The default
        loops; distributions whose sampler vectorizes override it.
        """
        return np.array(
            [self.next_interarrival(rng) for _ in range(count)], dtype=np.float64
        )

    @property
    @abc.abstractmethod
    def rate(self) -> float:
        """Mean generation rate (messages per time unit)."""

    def describe(self) -> str:
        return f"{type(self).__name__}(rate={self.rate:g})"
