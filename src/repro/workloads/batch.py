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
most ``n_s + 1`` arrival times.  The draws themselves run in C
(:func:`repro.sim.native.draw_times` and
:func:`repro.sim.native.draw_messages`), from the run's flat block of
initial stream states (:func:`repro.utils.rng.stream_states`) and through
numpy's own distribution code; only the cut-off ``T*`` is found here, in
NumPy, between the gap draws.  The result is a handful of flat arrays
with per-source offsets (:class:`PreDrawn`), which the native event loop
reads as they are.

**Every element is bit-identical to the sequential resume** because the C
draws start from the states the generator kernel's streams start from,
call the functions :class:`numpy.random.Generator` calls, in the same
per-stream order — gaps in message order, destinations in message order,
peers interleaved exit-then-entry over external messages only — and
arrival times accumulate by the same left fold (``t = t + gap``, matching
the simulator's ``now + gap`` chain).  ``tests/workloads/test_batch.py``
pins the equivalence against the scalar path of every pattern.

So the C code draws only what it implements: the exact classes
:class:`~repro.workloads.poisson.PoissonArrivals`,
:class:`~repro.workloads.poisson.DeterministicArrivals` and the four
patterns.  Any other class, a subclass included, is rejected here; the
generator kernel runs it from its scalar methods.

Over-drawing is harmless: each run draws from its own copy of the pooled
states, so gaps past ``T*`` — and the one extra message of a source whose
arrival ties ``T*`` but loses the tie — leave no trace in any other draw.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.topology.multicluster import MultiClusterSystem
from repro.utils.validation import ValidationError
from repro.workloads.base import ArrivalProcess, TrafficPattern
from repro.workloads.hotspot import HotspotTraffic
from repro.workloads.local import ClusterLocalTraffic
from repro.workloads.permutation import PermutationTraffic
from repro.workloads.poisson import DeterministicArrivals, PoissonArrivals
from repro.workloads.uniform import UniformTraffic

__all__ = ["PreDrawn", "predraw"]

_ARRIVALS = {PoissonArrivals: "poisson", DeterministicArrivals: "deterministic"}


def _needs_generator(unknown: object) -> ValidationError:
    return ValidationError(
        f"the vectorized kernel draws only the built-in arrival processes and "
        f"traffic patterns, not {type(unknown).__name__}; run it with "
        f'kernel="generator" (or REPRO_SIM_KERNEL=generator)'
    )


def _pattern_args(pattern: TrafficPattern, system: MultiClusterSystem) -> dict:
    """The native draw arguments of a built-in pattern (exact types only)."""
    kind = type(pattern)
    if kind is UniformTraffic:
        return {"pattern": "uniform"}
    if kind is HotspotTraffic:
        return {
            "pattern": "hotspot",
            "fraction": pattern.fraction,
            "hot_cluster": pattern.hot_cluster,
            "hot_node": -1 if pattern.hot_node is None else pattern.hot_node,
        }
    if kind is ClusterLocalTraffic:
        return {"pattern": "local", "fraction": pattern.local_fraction}
    if kind is PermutationTraffic:
        return {"pattern": "permutation", "table": pattern.partners(system)}
    raise _needs_generator(pattern)


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
    states: np.ndarray,
    total_messages: int,
) -> PreDrawn:
    """Draw every message a run of ``total_messages`` can generate.

    ``states`` is the run's block of initial (arrivals, destinations,
    peers) stream states per node (:func:`repro.utils.rng.stream_states`);
    it is only read.
    """
    # repro.sim imports this module, so the native boundary is imported late.
    from repro.sim import native

    arrival_kind = _ARRIVALS.get(type(arrivals))
    if arrival_kind is None:
        raise _needs_generator(arrivals)
    pattern_args = _pattern_args(pattern, system)
    cluster_nodes = [cluster.num_nodes for cluster in system.clusters]
    _, source_clusters, source_nodes = native.source_layout(cluster_nodes)
    num_sources = len(source_clusters)

    # -- arrival times: a (sources x width) fold per row, extended until
    # every row ends after the cut-off T*.  The cut-off can only fall as
    # rows grow, so a row that once ends after it always does.
    arrival_states = np.array(states[:, 0])
    gap = 1.0 / arrivals.rate
    width = 2 * -(-total_messages // num_sources) + 2
    times = native.draw_times(
        arrival_states, np.arange(num_sources), arrival_kind, gap, width, np.zeros(num_sources)
    )
    k = total_messages - 1
    while True:
        cutoff = np.partition(times, k, axis=None)[k]
        last = times[:, -1]
        short = np.flatnonzero(last <= cutoff)
        if not short.size:
            break
        more = np.full((num_sources, width), np.inf)
        # Starting the fold from the row's last time continues the
        # sequential chain t[i] = t[i-1] + gap[i] bit for bit.
        more[short] = native.draw_times(
            arrival_states, short, arrival_kind, gap, width, last[short]
        )
        if np.any(more[short, -1] <= last[short]):
            raise ValidationError(
                f"{arrivals.describe()} drew {width} inter-arrival gaps that "
                "do not advance the clock"
            )
        times = np.hstack((times, more))
    # Ties at T* may count one message too many per tied source; harmless.
    counts = np.count_nonzero(times <= cutoff, axis=1)
    heads = np.arange(times.shape[1]) <= counts[:, None]

    # -- destinations and peers, every source in one call
    dest_clusters, dest_nodes, exit_peers, entry_peers = native.draw_messages(
        cluster_nodes, counts, states, **pattern_args
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
