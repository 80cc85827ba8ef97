"""Per-source batched workload pre-drawing for the vectorized kernel.

The sequential simulator resumes one generator per source per message: draw
an inter-arrival gap, yield, draw a destination, draw two concentrator
peers if the message leaves its cluster.  Each of those is a Python-level
round trip into a PCG64 generator — a measured third of the wall clock of
an event-callback run, for about one event in twenty.

:class:`SourceBatcher` pre-draws that schedule in chunks instead: one sized
``exponential`` call for the gaps, one batched destination sample, one
bounded-``integers`` call for the interleaved (exit, entry) peer draws of
the chunk's external messages.  **Every element is bit-identical to the
sequential resume** because a sized NumPy draw consumes the underlying
BitGenerator stream exactly like the same number of scalar draws, arrival
times accumulate by the same left fold (``cumsum`` seeded with the chained
base time, matching the simulator's ``now + gap`` chain), and per-stream
draw *order* is preserved — gaps in message order, destinations in message
order, peers interleaved exit-then-entry over external messages only.
``tests/workloads/test_batch.py`` pins the equivalence property against the
scalar path across pooled stream snapshots.

Over-drawing is harmless: streams are single-consumer and re-restored from
the pooled snapshots (:mod:`repro.utils.rng`) at the start of every run, so
a chunk tail the run never consumes leaves no trace in any other draw.
"""

from __future__ import annotations

from math import ceil
from typing import List

import numpy as np

from repro.sim.wormhole import draw_peer
from repro.topology.multicluster import MultiClusterSystem
from repro.utils.validation import ValidationError
from repro.workloads.base import ArrivalProcess, TrafficPattern

__all__ = ["SourceBatcher", "initial_chunk"]

#: Chunk ceiling: refills double up to this many messages per draw.
MAX_CHUNK = 4096

#: Below this chunk size a refill draws with plain scalar calls: one sized
#: NumPy draw costs several microseconds of fixed overhead regardless of
#: size, which a wide-but-shallow run (thousands of sources, a couple of
#: messages each) would pay per *source*.  Both paths consume the stream
#: identically, so the crossover is invisible to the draw sequence.
VECTOR_REFILL_MIN = 16


def initial_chunk(total_messages: int, num_sources: int) -> int:
    """First-chunk size: the expected per-source share of the run.

    Sources consume messages at random, so any one source may run ahead of
    the mean; the doubling refill absorbs that.  Starting at the bare share
    matters on wide shallow runs — pre-drawing eight messages for each of a
    thousand sources that will send one or two is pure setup cost.
    """
    share = ceil(total_messages / max(num_sources, 1))
    return max(1, min(MAX_CHUNK, share))


class SourceBatcher:
    """The pre-drawn message schedule of one source node.

    Parallel per-message arrays, consumed by cursor:

    * ``times[i]`` — absolute arrival time of the source's ``i``-th message
      (within the current chunk);
    * ``dest_clusters[i]`` / ``dest_nodes[i]`` — its destination;
    * ``exit_peers[i]`` / ``entry_peers[i]`` — the distributed-concentrator
      peer draws, ``-1`` for intra-cluster messages (which draw none).

    The consumer reads index :attr:`cursor`, advances it, and calls
    :meth:`refill` when it hits :attr:`limit`; refills *extend* the arrays
    (the cursor never rewinds) and chain the time base so chunk boundaries
    are invisible in the arrival-time sequence.  Extension means a caller
    may also refill ahead of consumption — the vectorized kernel pre-draws
    each source's expected share at construction so its event loop almost
    never draws.

    Construction draws *only the first arrival gap*: the scheduler needs
    every source's first arrival time up front, but destinations and peer
    draws of sources that never fire before the run stops would be pure
    setup cost (on a thousand-source system at a small message budget, most
    of it).  :attr:`dest_clusters` is ``None`` until the consumer calls
    :meth:`materialize` at the first consumption; subsequent refills draw
    fully-aligned chunks.  The sequential path draws gap, then destination,
    then peers per message from three *independent* streams, so deferring
    the latter two changes no stream's draw order.
    """

    __slots__ = (
        "times",
        "dest_clusters",
        "dest_nodes",
        "exit_peers",
        "entry_peers",
        "cursor",
        "limit",
        "_arrival_rng",
        "_dest_rng",
        "_peer_rng",
        "_arrivals",
        "_pattern",
        "_system",
        "_cluster",
        "_node",
        "_source_nodes",
        "_cluster_nodes",
        "_base_time",
        "_chunk",
    )

    def __init__(
        self,
        system: MultiClusterSystem,
        pattern: TrafficPattern,
        arrivals: ArrivalProcess,
        arrival_rng: np.random.Generator,
        dest_rng: np.random.Generator,
        peer_rng: np.random.Generator,
        cluster: int,
        node: int,
        cluster_nodes: np.ndarray,
        chunk: int,
    ) -> None:
        self._system = system
        self._pattern = pattern
        self._arrivals = arrivals
        self._arrival_rng = arrival_rng
        self._dest_rng = dest_rng
        self._peer_rng = peer_rng
        self._cluster = cluster
        self._node = node
        self._source_nodes = int(cluster_nodes[cluster])
        self._cluster_nodes = cluster_nodes
        self._chunk = chunk
        # Construction draws the first arrival gap only — the scheduler
        # needs every source's first arrival time before the run starts.
        # 0.0 + gap is exact, so this matches the sequential left fold.
        self._base_time = arrivals.next_interarrival(arrival_rng)
        self.cursor = 0
        self.limit = 1
        self.times: List[float] = [self._base_time]
        self.dest_clusters: "List[int] | None" = None
        self.dest_nodes: "List[int] | None" = None
        self.exit_peers: "List[int] | None" = None
        self.entry_peers: "List[int] | None" = None

    def materialize(self) -> None:
        """Draw the deferred destination/peers of the construction chunk.

        Called by the consumer the first time this source's schedule is
        actually read; a source whose first arrival never fires (run stops
        first) skips these draws entirely.  Per-stream draw order matches
        the sequential path — the destination and peer streams see their
        first draws here exactly as they would at the first arrival event.
        """
        sample = self._pattern.sample_destination(
            self._dest_rng, self._system, self._cluster, self._node
        )
        if sample.cluster != self._cluster:
            exit_peer = draw_peer(self._peer_rng, self._source_nodes, self._node)
            entry_peer = draw_peer(
                self._peer_rng, int(self._cluster_nodes[sample.cluster]), sample.node
            )
        else:
            exit_peer = entry_peer = -1
        self.dest_clusters = [sample.cluster]
        self.dest_nodes = [sample.node]
        self.exit_peers = [exit_peer]
        self.entry_peers = [entry_peer]

    def refill(self) -> None:
        """Draw the next chunk of the schedule, extending the arrays."""
        if self.dest_clusters is None:
            self.materialize()
        count = self._chunk
        if count < MAX_CHUNK:
            self._chunk = min(count * 2, MAX_CHUNK)
        if count < VECTOR_REFILL_MIN:
            self._refill_scalar(count)
            return
        gaps = np.asarray(
            self._arrivals.next_interarrivals(self._arrival_rng, count),
            dtype=np.float64,
        )
        # Seeding the cumulative sum with the chained base reproduces the
        # sequential left fold t[i] = t[i-1] + gap[i] bit for bit — float
        # addition is not associative, so `base + cumsum(gaps)` would not.
        times = np.cumsum(np.concatenate(((self._base_time,), gaps)))
        self._base_time = float(times[-1])
        self.times.extend(times[1:].tolist())

        clusters, nodes = self._pattern.sample_destination_batch(
            self._dest_rng, self._system, self._cluster, self._node, count
        )
        self.dest_clusters.extend(clusters)
        self.dest_nodes.extend(nodes)
        self._draw_peers(np.asarray(clusters), np.asarray(nodes), count)
        self.limit += count

    def _refill_scalar(self, count: int) -> None:
        """Small-chunk refill via the sequential simulator's own scalar calls.

        Draw-for-draw the same stream consumption as the vectorized path (a
        sized draw equals that many scalar draws), chosen purely on cost:
        per-stream order is gaps, then destinations, then interleaved peer
        pairs over the external messages — identical to the array path.
        """
        arrival_rng = self._arrival_rng
        arrivals = self._arrivals
        now = self._base_time
        times = self.times
        for _ in range(count):
            now = now + arrivals.next_interarrival(arrival_rng)
            times.append(now)
        self._base_time = now
        dest_rng = self._dest_rng
        pattern = self._pattern
        system = self._system
        cluster = self._cluster
        node = self._node
        dest_clusters = []
        dest_nodes = []
        for _ in range(count):
            sample = pattern.sample_destination(dest_rng, system, cluster, node)
            dest_clusters.append(sample.cluster)
            dest_nodes.append(sample.node)
        self.dest_clusters.extend(dest_clusters)
        self.dest_nodes.extend(dest_nodes)
        peer_rng = self._peer_rng
        source_nodes = self._source_nodes
        cluster_nodes = self._cluster_nodes
        exit_peers = self.exit_peers
        entry_peers = self.entry_peers
        for index in range(count):
            dest_cluster = dest_clusters[index]
            if dest_cluster != cluster:
                exit_peers.append(draw_peer(peer_rng, source_nodes, node))
                entry_peers.append(
                    draw_peer(
                        peer_rng, int(cluster_nodes[dest_cluster]), dest_nodes[index]
                    )
                )
            else:
                exit_peers.append(-1)
                entry_peers.append(-1)
        self.limit += count

    def _draw_peers(self, clusters: np.ndarray, nodes: np.ndarray, count: int) -> None:
        """Batch the (exit, entry) concentrator peer draws of the chunk.

        The sequential path draws, per external message, an exit peer in the
        source cluster then an entry peer in the destination cluster — two
        bounded draws from the same stream.  One ``integers`` call over the
        interleaved bounds array consumes the stream identically.
        """
        external = clusters != self._cluster
        externals = int(np.count_nonzero(external))
        if externals == 0:
            self.exit_peers.extend([-1] * count)
            self.entry_peers.extend([-1] * count)
            return
        entry_bounds = self._cluster_nodes[clusters[external]] - 1
        bounds = np.empty(2 * externals, dtype=np.int64)
        bounds[0::2] = self._source_nodes - 1
        bounds[1::2] = entry_bounds
        if bounds.min() < 1:
            raise ValidationError("drawing a peer needs at least two nodes")
        draws = self._peer_rng.integers(0, bounds)
        exit_draws = draws[0::2]
        entry_draws = draws[1::2]
        # draw_peer's skip-the-excluded-slot adjustment, vectorized.
        exit_draws += exit_draws >= self._node
        entry_draws += entry_draws >= nodes[external]
        exit_full = np.full(count, -1, dtype=np.int64)
        entry_full = np.full(count, -1, dtype=np.int64)
        exit_full[external] = exit_draws
        entry_full[external] = entry_draws
        self.exit_peers.extend(exit_full.tolist())
        self.entry_peers.extend(entry_full.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SourceBatcher(c{self._cluster}n{self._node}, "
            f"cursor={self.cursor}/{self.limit})"
        )
