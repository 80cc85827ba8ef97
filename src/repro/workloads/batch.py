"""Exact pre-draw of a run's whole workload for the vectorized kernel.

The sequential simulator resumes one generator per source per message: draw
an inter-arrival gap, yield, draw a destination, draw two concentrator
peers if the message leaves its cluster.  Each of those is a Python-level
round trip into a PCG64 generator.

:func:`predraw` draws, before the event loop and for all sources at once,
exactly the messages the run can generate.  Arrival times depend only on
each source's own arrivals stream, so the time ``T*`` of the run's
``total_messages``-th arrival is known up front: a source generates at most
``n_s`` messages, the number of its arrival times ``<= T*``, and reads at
most ``n_s + 1`` arrival times.  Each source makes one sized NumPy call
per stream, plus one more arrivals call per round for the rare source that
outruns the first draw.  The result is a handful of flat arrays with
per-source offsets (:class:`PreDrawn`), which the native event loop reads
as they are.

**Every element is bit-identical to the sequential resume** because a sized
NumPy draw consumes the underlying BitGenerator stream exactly like the same
number of scalar draws, arrival times accumulate by the same left fold
(``cumsum`` along each row, matching the simulator's ``now + gap`` chain),
and per-stream draw *order* is preserved — gaps in message order,
destinations in message order, peers interleaved exit-then-entry over
external messages only.  ``tests/workloads/test_batch.py`` pins the
equivalence against the scalar path across pooled stream snapshots.

Over-drawing is harmless: streams are single-consumer and re-restored from
the pooled snapshots (:mod:`repro.utils.rng`) at the start of every run, so
gaps past ``T*`` — and the one extra message of a source whose arrival ties
``T*`` but loses the tie — leave no trace in any other draw.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.topology.multicluster import MultiClusterSystem
from repro.utils.rng import RandomStreams
from repro.utils.validation import ValidationError
from repro.workloads.base import ArrivalProcess, TrafficPattern

__all__ = ["PreDrawn", "draw_peers", "predraw"]


class PreDrawn(NamedTuple):
    """One run's messages as flat arrays, sources in system order.

    Source ``s`` is node ``nodes[s]`` of cluster ``clusters[s]``.  Its
    ``n_s`` messages are entries ``offsets[s]:offsets[s + 1]`` of the
    message arrays — destination, and the distributed-concentrator peer
    draws (``-1`` for intra-cluster messages, which draw none) — and its
    ``n_s + 1`` arrival times are entries
    ``offsets[s] + s:offsets[s + 1] + s + 1`` of ``times``.
    """

    clusters: np.ndarray  # int64 (S,)
    nodes: np.ndarray  # int64 (S,)
    offsets: np.ndarray  # int64 (S + 1,)
    times: np.ndarray  # float64 (M + S,)
    dest_clusters: np.ndarray  # int64 (M,)
    dest_nodes: np.ndarray  # int64 (M,)
    exit_peers: np.ndarray  # int64 (M,)
    entry_peers: np.ndarray  # int64 (M,)

    def counts(self) -> np.ndarray:
        """Messages drawn per source."""
        return np.diff(self.offsets)


def predraw(
    system: MultiClusterSystem,
    pattern: TrafficPattern,
    arrivals: ArrivalProcess,
    streams: RandomStreams,
    total_messages: int,
) -> PreDrawn:
    """Draw every message a run of ``total_messages`` can generate."""
    cluster_nodes = np.asarray(
        [cluster.num_nodes for cluster in system.clusters], dtype=np.int64
    )
    source_clusters = np.repeat(np.arange(len(cluster_nodes)), cluster_nodes)
    source_nodes = np.arange(len(source_clusters)) - system.node_offsets[source_clusters]
    clusters = source_clusters.tolist()
    nodes = source_nodes.tolist()
    sources = list(zip(clusters, nodes))
    num_sources = len(sources)

    # -- arrival times: a (sources x width) fold per row, extended until
    # every row ends after the cut-off T*.  The cut-off can only fall as
    # rows grow, so a row that once ends after it always does.
    arrival_rngs = [streams.get("arrivals", *source) for source in sources]
    width = 2 * -(-total_messages // num_sources) + 2
    gaps = np.empty((num_sources, width))
    for row, rng in enumerate(arrival_rngs):
        gaps[row] = arrivals.next_interarrivals(rng, width)
    times = np.cumsum(gaps, axis=1)
    k = total_messages - 1
    while True:
        cutoff = np.partition(times, k, axis=None)[k]
        last = times[:, -1]
        short = np.flatnonzero(last <= cutoff)
        if not short.size:
            break
        more = np.full((num_sources, width), np.inf)
        for row in short.tolist():
            gaps = arrivals.next_interarrivals(arrival_rngs[row], width)
            # Seeding the fold with the row's last time continues the
            # sequential chain t[i] = t[i-1] + gap[i] bit for bit.
            more[row] = np.cumsum(np.concatenate(((last[row],), gaps)))[1:]
        if np.any(more[short, -1] <= last[short]):
            raise ValidationError(
                f"{arrivals.describe()} drew {width} inter-arrival gaps that "
                "do not advance the clock"
            )
        times = np.hstack((times, more))
    # Ties at T* may count one message too many per tied source; harmless.
    counts = np.count_nonzero(times <= cutoff, axis=1)
    heads = np.arange(times.shape[1]) <= counts[:, None]
    count_list = counts.tolist()

    # -- destinations and peers, source after source
    dest_clusters, dest_nodes = pattern.sample_destinations(
        [streams.get("destinations", *source) for source in sources],
        system,
        clusters,
        nodes,
        count_list,
    )
    exit_peers, entry_peers = draw_peers(
        [streams.get("peers", *source) for source in sources],
        cluster_nodes,
        np.repeat(source_clusters, counts),
        np.repeat(source_nodes, counts),
        dest_clusters,
        dest_nodes,
        count_list,
    )
    return PreDrawn(
        source_clusters,
        source_nodes,
        np.concatenate(((0,), np.cumsum(counts))),
        times[heads],
        dest_clusters,
        dest_nodes,
        exit_peers,
        entry_peers,
    )


def draw_peers(
    rngs: Sequence[np.random.Generator],
    cluster_nodes: np.ndarray,
    source_clusters: np.ndarray,
    source_nodes: np.ndarray,
    dest_clusters: np.ndarray,
    dest_nodes: np.ndarray,
    counts: Sequence[int],
) -> "tuple[np.ndarray, np.ndarray]":
    """The (exit, entry) concentrator peers of every message.

    Messages are given source after source, ``counts[s]`` of them for
    source ``s``, which draws from ``rngs[s]``.  The sequential path draws,
    per external message, an exit peer in the source cluster then an entry
    peer in the destination cluster — two bounded draws from the same
    stream.  One ``integers`` call per source over its slice of the
    interleaved bounds array consumes the stream identically.  Intra-cluster
    messages draw nothing and get ``-1``.
    """
    external = dest_clusters != source_clusters
    bounds = np.empty((int(np.count_nonzero(external)), 2), dtype=np.int64)
    bounds[:, 0] = cluster_nodes[source_clusters[external]] - 1
    bounds[:, 1] = cluster_nodes[dest_clusters[external]] - 1
    if bounds.size and bounds.min() < 1:
        raise ValidationError("drawing a peer needs at least two nodes")
    draws = np.empty_like(bounds)
    flat_bounds = bounds.reshape(-1)
    flat_draws = draws.reshape(-1)
    # Where each source's external messages end, in draws (two each).
    externals_before = np.concatenate(((0,), np.cumsum(external)))
    ends = (2 * externals_before[np.cumsum(counts)]).tolist()
    start = 0
    for rng, end in zip(rngs, ends):
        if end > start:
            flat_draws[start:end] = rng.integers(0, flat_bounds[start:end])
        start = end
    # draw_peer's skip-the-excluded-slot adjustment, vectorized.
    draws[:, 0] += draws[:, 0] >= source_nodes[external]
    draws[:, 1] += draws[:, 1] >= dest_nodes[external]
    exit_peers = np.full(len(external), -1, dtype=np.int64)
    entry_peers = np.full(len(external), -1, dtype=np.int64)
    exit_peers[external] = draws[:, 0]
    entry_peers[external] = draws[:, 1]
    return exit_peers, entry_peers

