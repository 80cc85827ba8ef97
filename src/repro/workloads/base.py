"""Workload abstractions: destination patterns and arrival processes.

The scalar methods (:meth:`TrafficPattern.sample_destination`,
:meth:`ArrivalProcess.next_interarrival`) are the specification: the
generator kernel draws with them, for any subclass.  The vectorized
kernel's pre-draw (:mod:`repro.workloads.batch`) draws the built-in
classes in C with the same draws in the same order, and rejects every
other class.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
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

    @property
    @abc.abstractmethod
    def rate(self) -> float:
        """Mean generation rate (messages per time unit)."""

    def describe(self) -> str:
        return f"{type(self).__name__}(rate={self.rate:g})"
