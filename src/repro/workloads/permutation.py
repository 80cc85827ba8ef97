"""Permutation traffic: every node sends all its messages to one fixed partner.

A random permutation is the classic adversarial pattern for interconnection
networks: it removes the statistical multiplexing that uniform traffic
enjoys, so deterministic routings show their worst-case contention.  The
permutation is drawn derangement-style (no fixed points) from the pattern's
own seed, or — with ``seed=None`` — once per run from the run's
``"permutation"`` stream, so a run depends on its seed alone, never on the
runs before it or on which source happens to draw first.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.topology.multicluster import MultiClusterSystem
from repro.workloads.base import DestinationSample, TrafficPattern


class PermutationTraffic(TrafficPattern):
    """Fixed random node-to-node permutation without fixed points."""

    def __init__(self, seed: int | None = None) -> None:
        self.seed = seed
        #: every node's partner, by global index
        self._permutation: Optional[List[int]] = None
        self._system_size: Optional[int] = None

    def _build(self, rng: np.random.Generator, system: MultiClusterSystem) -> List[int]:
        generator = np.random.default_rng(self.seed) if self.seed is not None else rng
        size = system.total_nodes
        while True:
            permutation = generator.permutation(size)
            if not np.any(permutation == np.arange(size)):
                break
        return permutation.tolist()

    def _partner_list(self, system: MultiClusterSystem) -> List[int]:
        if self._permutation is None or self._system_size != system.total_nodes:
            self._permutation = self._build(np.random.default_rng(self.seed), system)
            self._system_size = system.total_nodes
        return self._permutation

    def partner_of(self, system: MultiClusterSystem, source_global: int) -> int:
        """Global index of the fixed partner of ``source_global``."""
        return self._partner_list(system)[source_global]

    def partners(self, system: MultiClusterSystem) -> np.ndarray:
        """Every node's partner as an int64 array indexed by global node index."""
        return np.asarray(self._partner_list(system), dtype=np.int64)

    def for_run(self, streams, system: MultiClusterSystem) -> "PermutationTraffic":
        """Unseeded patterns draw one permutation per run from its own stream.

        Streams are keyed by a hash of their name, so drawing from
        ``"permutation"`` moves no other stream of the run.
        """
        if self.seed is not None:
            return self
        bound = PermutationTraffic()
        bound._permutation = self._build(streams.get("permutation"), system)
        bound._system_size = system.total_nodes
        return bound

    def sample_destination(
        self,
        rng: np.random.Generator,
        system: MultiClusterSystem,
        source_cluster: int,
        source_node: int,
    ) -> DestinationSample:
        source_global = system.global_index(source_cluster, source_node)
        dest_cluster, dest_node = system.locate(self.partner_of(system, source_global))
        return DestinationSample(dest_cluster, dest_node)

    def mapping(self, system: MultiClusterSystem) -> Tuple[Tuple[int, int], ...]:
        """The full (source, destination) mapping in global indices."""
        return tuple(enumerate(self._partner_list(system)))

    def describe(self) -> str:
        return f"permutation(seed={self.seed})"
