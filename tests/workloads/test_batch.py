"""The exact pre-draw is bit-identical to sequential generator resumes.

:func:`~repro.workloads.batch.predraw` feeds the vectorized kernel from the
same pooled PCG64 snapshots the sequential simulator uses.  The property
pinned here is the whole foundation of that kernel's golden-seed
bit-identity: for any seed, rate, shape and pattern, every source's
pre-drawn arrival times, destinations and concentrator peer draws equal —
bit for bit — what the scalar draw sequence of ``_source_process`` /
``_build_journey`` produces from the same stream snapshots.  The other
half of the contract is the count: a source never generates more messages
than were drawn for it, so the event loop draws nothing.
"""

from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.sim.simulator import MultiClusterSimulator
from repro.sim.vector import VectorizedRunState
from repro.sim.wormhole import draw_peer
from repro.topology.multicluster import MultiClusterSpec, MultiClusterSystem
from repro.utils.rng import RandomStreams, clear_stream_pool
from repro.utils.validation import ValidationError
from repro.workloads.base import ArrivalProcess, DestinationSample, TrafficPattern
from repro.workloads.batch import draw_peers, predraw
from repro.workloads.hotspot import HotspotTraffic
from repro.workloads.poisson import DeterministicArrivals, PoissonArrivals
from repro.workloads.uniform import UniformTraffic

#: Heterogeneous shape: cluster sizes differ, so entry-peer draw bounds vary.
SPEC = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="batch-test")
SYSTEM = MultiClusterSystem(SPEC)


class EveryOtherNode(TrafficPattern):
    """A custom pattern with no all-sources override."""

    def sample_destination(self, rng, system, source_cluster, source_node):
        draw = int(rng.integers(0, system.total_nodes - 1))
        if draw >= system.global_index(source_cluster, source_node):
            draw += 1
        return DestinationSample(*system.locate(draw))


class Erlang2(ArrivalProcess):
    """A custom arrival process with no sized override."""

    def next_interarrival(self, rng):
        return float(rng.exponential(0.5) + rng.exponential(0.5))

    @property
    def rate(self):
        return 1.0


class CountingPoisson(PoissonArrivals):
    """Poisson arrivals that count the sized draws made from each stream."""

    def __init__(self, rate):
        super().__init__(rate)
        self.batches = Counter()

    def next_interarrivals(self, rng, count):
        self.batches[id(rng)] += 1
        return super().next_interarrivals(rng, count)


class Stalled(ArrivalProcess):
    """Gaps that never advance the clock."""

    def next_interarrival(self, rng):
        return 0.0

    @property
    def rate(self):
        return 1.0


@lru_cache(maxsize=None)
def _system(m, heights):
    return MultiClusterSystem(MultiClusterSpec(m=m, cluster_heights=heights, name="random"))


@st.composite
def _systems(draw):
    m, clusters, tallest = draw(st.sampled_from([(2, 2, 3), (4, 4, 2)]))
    heights = draw(st.lists(st.integers(1, tallest), min_size=clusters, max_size=clusters))
    return _system(m, tuple(heights))


@st.composite
def _patterns(draw, system):
    kind = draw(st.sampled_from(["uniform", "hotspot", "hot-node", "custom"]))
    if kind == "uniform":
        return UniformTraffic()
    if kind == "custom":
        return EveryOtherNode()
    hot_cluster = draw(st.integers(0, system.num_clusters - 1))
    fraction = draw(st.floats(0.0, 1.0))
    if kind == "hotspot":
        return HotspotTraffic(hot_cluster, fraction)
    hot_node = draw(st.integers(0, system.cluster(hot_cluster).num_nodes - 1))
    return HotspotTraffic(hot_cluster, fraction, hot_node)


def _scalar_reference(system, pattern, arrivals, streams, cluster, node, count):
    """The sequential simulator's draws at one source for ``count`` messages.

    Returns the ``count + 1`` arrival times the source reads and its
    ``count`` (destination cluster, destination node, exit peer, entry peer)
    records.
    """
    cluster_nodes = [each.num_nodes for each in system.clusters]
    arrival_rng = streams.get("arrivals", cluster, node)
    dest_rng = streams.get("destinations", cluster, node)
    peer_rng = streams.get("peers", cluster, node)
    now = 0.0
    times = []
    records = []
    for _ in range(count):
        now = now + arrivals.next_interarrival(arrival_rng)
        times.append(now)
        sample = pattern.sample_destination(dest_rng, system, cluster, node)
        if sample.cluster != cluster:
            exit_peer = draw_peer(peer_rng, cluster_nodes[cluster], node)
            entry_peer = draw_peer(peer_rng, cluster_nodes[sample.cluster], sample.node)
        else:
            exit_peer = entry_peer = -1
        records.append((sample.cluster, sample.node, exit_peer, entry_peer))
    times.append(now + arrivals.next_interarrival(arrival_rng))
    return times, records


def _assert_matches_scalar(system, pattern, arrivals, seed, total):
    """Pre-draw a run, check every source against the scalar path, return it."""
    clear_stream_pool()
    drawn = predraw(system, pattern, arrivals, RandomStreams(seed, pooled=True), total)
    assert list(zip(drawn.clusters.tolist(), drawn.nodes.tolist())) == [
        (cluster, node.index) for cluster, node in system.nodes()
    ]
    offsets = drawn.offsets.tolist()
    # A fresh pooled family restores every stream to its snapshot, so the
    # scalar reference replays the identical bit streams.
    streams = RandomStreams(seed, pooled=True)
    for source, (cluster, node) in enumerate(zip(drawn.clusters, drawn.nodes)):
        start, end = offsets[source], offsets[source + 1]
        times, records = _scalar_reference(
            system, pattern, arrivals, streams, int(cluster), int(node), end - start
        )
        assert drawn.times[start + source : end + source + 1].tolist() == times
        assert (
            list(
                zip(
                    drawn.dest_clusters[start:end].tolist(),
                    drawn.dest_nodes[start:end].tolist(),
                    drawn.exit_peers[start:end].tolist(),
                    drawn.entry_peers[start:end].tolist(),
                )
            )
            == records
        )
    return drawn


def _counts(drawn):
    return drawn.counts().tolist()


class TestBatchedDrawsMatchSequentialResumes:
    @given(
        data=st.data(),
        system=_systems(),
        seed=st.integers(min_value=0, max_value=2**31),
        rate=st.floats(min_value=1e-5, max_value=10.0),
        total=st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_poisson_batches_are_bit_identical(self, data, system, seed, rate, total):
        pattern = data.draw(_patterns(system))
        drawn = _assert_matches_scalar(system, pattern, PoissonArrivals(rate), seed, total)
        # Continuous gaps never tie, so the cut-off admits exactly the run.
        assert sum(_counts(drawn)) == total

    @given(
        system=_systems(),
        seed=st.integers(min_value=0, max_value=2**31),
        total=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=20, deadline=None)
    def test_deterministic_arrivals_chain_identically(self, system, seed, total):
        drawn = _assert_matches_scalar(
            system, UniformTraffic(), DeterministicArrivals(3.7e-4), seed, total
        )
        # Every source shares the arrival times, so all tie at the cut-off:
        # each draws the same count, at least the run's share.
        counts = _counts(drawn)
        assert sum(counts) >= total
        assert set(counts) == {-(-total // system.total_nodes)}

    def test_default_batch_hooks_cover_custom_subclasses(self):
        """Patterns/processes without array overrides pre-draw via scalar loops."""
        for pattern in (EveryOtherNode(), HotspotTraffic(1, 0.5, 3)):
            _assert_matches_scalar(SYSTEM, pattern, Erlang2(), 7, 70)

    def test_short_rows_are_extended(self):
        """Sources whose first draw ends before the cut-off draw more gaps."""
        # Seed 1 at one message per source: two sources send more than the
        # first draw's width before the cut-off.
        arrivals = CountingPoisson(1.0)
        drawn = _assert_matches_scalar(SYSTEM, UniformTraffic(), arrivals, 1, 24)
        assert sorted(arrivals.batches.values())[-2:] == [2, 2]
        assert sum(_counts(drawn)) == 24

    def test_zero_gaps_are_rejected(self):
        clear_stream_pool()
        with pytest.raises(ValidationError, match="do not advance the clock"):
            predraw(SYSTEM, UniformTraffic(), Stalled(), RandomStreams(0, pooled=True), 10)


class TestAllSourcesDestinations:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        hot_cluster=st.integers(0, 3),
        fraction=st.floats(0.0, 1.0),
        hot_node=st.one_of(st.none(), st.integers(0, 3)),
        counts=st.lists(st.integers(0, 6), min_size=24, max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_hotspot_matches_scalar_draws(self, seed, hot_cluster, fraction, hot_node, counts):
        # Every node of SYSTEM is a source, so sources inside and outside
        # the hot cluster — and the hot node itself — all draw.
        pattern = HotspotTraffic(hot_cluster, fraction, hot_node)
        sources = [(cluster, node.index) for cluster, node in SYSTEM.nodes()]
        clusters, nodes = pattern.sample_destinations(
            [np.random.default_rng([seed, index]) for index in range(len(sources))],
            SYSTEM,
            [cluster for cluster, _ in sources],
            [node for _, node in sources],
            counts,
        )
        expected = [
            pattern.sample_destination(rng, SYSTEM, cluster, node)
            for index, ((cluster, node), count) in enumerate(zip(sources, counts))
            for rng in [np.random.default_rng([seed, index])]
            for _ in range(count)
        ]
        assert clusters.tolist() == [sample.cluster for sample in expected]
        assert nodes.tolist() == [sample.node for sample in expected]

    def test_hot_node_falls_back_to_uniform(self):
        pattern = HotspotTraffic(hot_cluster=1, fraction=1.0, hot_node=2)
        clusters, nodes = pattern.sample_destinations(
            [np.random.default_rng(5)], SYSTEM, [1], [2], [40]
        )
        rng = np.random.default_rng(5)
        expected = [pattern.sample_destination(rng, SYSTEM, 1, 2) for _ in range(40)]
        assert list(zip(clusters.tolist(), nodes.tolist())) == [
            (sample.cluster, sample.node) for sample in expected
        ]
        assert (1, 2) not in set(zip(clusters.tolist(), nodes.tolist()))

    def test_hot_node_out_of_range_is_rejected(self):
        pattern = HotspotTraffic(hot_cluster=0, fraction=0.5, hot_node=4)
        with pytest.raises(ValidationError):
            pattern.sample_destinations([np.random.default_rng(0)], SYSTEM, [1], [0], [3])


class TestPeerDraws:
    def test_single_node_peer_cluster_is_rejected(self):
        # Cluster 0 has one node: a message leaving it has no exit peer.
        with pytest.raises(ValidationError, match="at least two nodes"):
            draw_peers(
                [np.random.default_rng(0)],
                np.asarray([1, 4]),
                np.asarray([0]),
                np.asarray([0]),
                np.asarray([1]),
                np.asarray([3]),
                [1],
            )

    def test_intra_cluster_messages_draw_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        exit_peers, entry_peers = draw_peers(
            [rng],
            np.asarray([4, 8]),
            np.asarray([1, 1]),
            np.asarray([0, 5]),
            np.asarray([1, 1]),
            np.asarray([3, 2]),
            [2],
        )
        assert exit_peers.tolist() == entry_peers.tolist() == [-1, -1]
        assert rng.bit_generator.state == state


class TestKernelReadsOnlyPreDrawnMessages:
    CONFIG = SimulationConfig(
        measured_messages=300, warmup_messages=30, drain_messages=30, seed=5
    )

    def _simulator(self):
        return MultiClusterSimulator(
            SPEC,
            MessageSpec(length_flits=8, flit_bytes=128),
            config=self.CONFIG,
            kernel="vectorized",
        )

    def test_cursors_never_pass_the_drawn_counts(self):
        clear_stream_pool()
        state = VectorizedRunState(self._simulator(), 8e-4, self.CONFIG)
        state.execute()
        counts = state.workload.counts()
        assert counts.sum() == self.CONFIG.total_messages
        assert len(state.workload.times) == counts.sum() + len(counts)
        consumed = state.outcome.consumed
        assert np.all(consumed <= counts)
        assert 0 < consumed.sum() <= self.CONFIG.total_messages

    def test_event_loop_makes_no_draws(self, monkeypatch):
        clear_stream_pool()
        reference = self._simulator().run(8e-4)
        armed = []

        class Guarded:
            """A stream that fails on any call once the event loop starts."""

            def __init__(self, generator):
                self._generator = generator

            def __getattr__(self, name):
                if armed:
                    raise AssertionError(f"{name}() drawn inside the event loop")
                return getattr(self._generator, name)

        class GuardedStreams(RandomStreams):
            def get(self, *key):
                return Guarded(super().get(*key))

        execute = VectorizedRunState.execute

        def armed_execute(state):
            armed.append(True)
            execute(state)

        monkeypatch.setattr("repro.sim.vector.RandomStreams", GuardedStreams)
        monkeypatch.setattr(VectorizedRunState, "execute", armed_execute)
        clear_stream_pool()
        guarded = self._simulator().run(8e-4)
        assert armed
        assert replace(guarded, wall_clock_seconds=0.0) == replace(
            reference, wall_clock_seconds=0.0
        )
