"""The native pre-draw is bit-identical to sequential generator resumes.

:func:`~repro.workloads.batch.predraw` draws in C, from the flat block of
initial PCG64 states the vectorized kernel pools per (seed, system).  The
property pinned here is the whole foundation of that kernel's golden-seed
bit-identity: for any seed, rate, shape and pattern, every source's
pre-drawn arrival times, destinations and concentrator peer draws equal —
bit for bit — what the scalar draw sequence of ``_source_process`` /
``_build_journey`` produces from the same streams.  The other half of the
contract is the count: a source never generates more messages than were
drawn for it, so the event loop draws nothing.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model.parameters import MessageSpec
from repro.sim import native
from repro.sim.config import SimulationConfig
from repro.sim.simulator import STREAM_KINDS, MultiClusterSimulator
from repro.sim.vector import VectorizedRunState
from repro.sim.wormhole import draw_peer
from repro.topology.multicluster import MultiClusterSpec, MultiClusterSystem
from repro.utils import rng as rng_module
from repro.utils.rng import RandomStreams, clear_stream_pool, stream_states
from repro.utils.validation import ValidationError
from repro.workloads.base import ArrivalProcess, DestinationSample, TrafficPattern
from repro.workloads.batch import predraw
from repro.workloads.hotspot import HotspotTraffic
from repro.workloads.local import ClusterLocalTraffic
from repro.workloads.permutation import PermutationTraffic
from repro.workloads.poisson import DeterministicArrivals, PoissonArrivals
from repro.workloads.uniform import UniformTraffic

#: Heterogeneous shape: cluster sizes differ, so entry-peer draw bounds vary.
SPEC = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="batch-test")
SYSTEM = MultiClusterSystem(SPEC)


class EveryOtherNode(TrafficPattern):
    """A custom pattern: only the generator kernel can draw it."""

    def sample_destination(self, rng, system, source_cluster, source_node):
        draw = int(rng.integers(0, system.total_nodes - 1))
        if draw >= system.global_index(source_cluster, source_node):
            draw += 1
        return DestinationSample(*system.locate(draw))


class Erlang2(ArrivalProcess):
    """A custom arrival process: only the generator kernel can draw it."""

    def next_interarrival(self, rng):
        return float(rng.exponential(0.5) + rng.exponential(0.5))

    @property
    def rate(self):
        return 1.0


class SlowerPoisson(PoissonArrivals):
    """A subclass of a built-in class, with another gap distribution."""

    def next_interarrival(self, rng):
        return 2 * super().next_interarrival(rng)


class NearbyUniform(UniformTraffic):
    """A subclass of a built-in pattern."""


@lru_cache(maxsize=None)
def _system(m, heights):
    return MultiClusterSystem(MultiClusterSpec(m=m, cluster_heights=heights, name="random"))


def _states(system, seed):
    """The block a vectorized run of ``seed`` draws from."""
    cluster_nodes = [cluster.num_nodes for cluster in system.clusters]
    return stream_states(RandomStreams(seed), STREAM_KINDS, cluster_nodes, native.seed_states)


@st.composite
def _systems(draw):
    m, clusters, tallest = draw(st.sampled_from([(2, 2, 3), (4, 4, 2)]))
    heights = draw(st.lists(st.integers(1, tallest), min_size=clusters, max_size=clusters))
    return _system(m, tuple(heights))


@st.composite
def _patterns(draw, system):
    """Every pattern the native pre-draw implements, with random parameters."""
    kind = draw(
        st.sampled_from(
            ["uniform", "hotspot", "hot-node", "local", "permutation", "unseeded-permutation"]
        )
    )
    if kind == "uniform":
        return UniformTraffic()
    if kind == "local":
        return ClusterLocalTraffic(draw(st.floats(0.0, 1.0)))
    if kind == "permutation":
        return PermutationTraffic(seed=draw(st.integers(0, 2**31)))
    if kind == "unseeded-permutation":
        # Bound to a run the way both kernels bind it: from its own stream.
        return PermutationTraffic().for_run(
            RandomStreams(draw(st.integers(0, 2**31))), system
        )
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
    drawn = predraw(system, pattern, arrivals, _states(system, seed), total)
    assert list(zip(drawn.clusters.tolist(), drawn.nodes.tolist())) == [
        (cluster, node.index) for cluster, node in system.nodes()
    ]
    offsets = drawn.offsets.tolist()
    # Fresh generators start from the states the block holds.
    streams = RandomStreams(seed)
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


class _Untouchable:
    """A library none of whose draws may be reached."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} was called")


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

    def test_short_rows_are_extended(self, monkeypatch):
        """Sources whose first draw ends before the cut-off draw more gaps."""
        calls = []
        draw_times = native.draw_times

        def spy(states, rows, *args):
            calls.append(np.asarray(rows).tolist())
            return draw_times(states, rows, *args)

        monkeypatch.setattr(native, "draw_times", spy)
        # Seed 1 at one message per source: two sources send more than the
        # first draw's width before the cut-off.
        drawn = _assert_matches_scalar(SYSTEM, UniformTraffic(), PoissonArrivals(1.0), 1, 24)
        assert len(calls) == 2 and len(calls[1]) == 2
        assert sum(_counts(drawn)) == 24

    def test_zero_gaps_are_rejected(self, monkeypatch):
        """The guard against gaps that stall the clock, through the draw seam."""

        def stalled(states, rows, arrivals, gap, width, start):
            return np.repeat(np.asarray(start, dtype=np.float64)[:, None], width, axis=1)

        monkeypatch.setattr(native, "draw_times", stalled)
        clear_stream_pool()
        with pytest.raises(ValidationError, match="do not advance the clock"):
            predraw(SYSTEM, UniformTraffic(), PoissonArrivals(1.0), _states(SYSTEM, 0), 10)

    def test_custom_classes_rejected(self):
        """Only the built-in classes are drawn natively; the rest run on the
        generator kernel, which draws through their scalar methods."""
        config = SimulationConfig(
            measured_messages=60, warmup_messages=6, drain_messages=6, seed=4
        )
        cases = [
            (EveryOtherNode(), PoissonArrivals),
            (NearbyUniform(), PoissonArrivals),
            (UniformTraffic(), lambda rate: Erlang2()),
            (UniformTraffic(), SlowerPoisson),
        ]
        for pattern, arrivals in cases:
            simulators = {
                kernel: MultiClusterSimulator(
                    SPEC,
                    MessageSpec(length_flits=8, flit_bytes=128),
                    config=config,
                    pattern=pattern,
                    arrivals_factory=arrivals,
                    kernel=kernel,
                )
                for kernel in ("generator", "vectorized")
            }
            with pytest.raises(ValidationError, match='kernel="generator"'):
                simulators["vectorized"].run(8e-4)
            assert simulators["generator"].run(8e-4).measured_messages == 60


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
        sequences = [np.random.SeedSequence([seed, index]) for index in range(len(sources))]
        # seed < 2**32: SeedSequence([seed, index]) assembles exactly these words
        entropy = [[seed, index] for index in range(len(sources))]
        block = np.repeat(native.seed_states(entropy)[:, None], 3, axis=1)
        clusters, nodes, _, _ = native.draw_messages(
            [4, 8, 8, 4],
            counts,
            block,
            "hotspot",
            fraction=fraction,
            hot_cluster=hot_cluster,
            hot_node=-1 if hot_node is None else hot_node,
        )
        expected = [
            pattern.sample_destination(rng, SYSTEM, cluster, node)
            for (cluster, node), count, sequence in zip(sources, counts, sequences)
            for rng in [np.random.default_rng(sequence)]
            for _ in range(count)
        ]
        assert clusters.tolist() == [sample.cluster for sample in expected]
        assert nodes.tolist() == [sample.node for sample in expected]

    def test_hot_node_falls_back_to_uniform(self):
        pattern = HotspotTraffic(hot_cluster=1, fraction=1.0, hot_node=2)
        source = SYSTEM.global_index(1, 2)
        counts = np.zeros(SYSTEM.total_nodes, dtype=np.int64)
        counts[source] = 40
        clear_stream_pool()
        states = _states(SYSTEM, 5)
        clusters, nodes, _, _ = native.draw_messages(
            [4, 8, 8, 4], counts, states, "hotspot", fraction=1.0, hot_cluster=1, hot_node=2
        )
        rng = RandomStreams(5).get("destinations", 1, 2)
        expected = [pattern.sample_destination(rng, SYSTEM, 1, 2) for _ in range(40)]
        assert list(zip(clusters.tolist(), nodes.tolist())) == [
            (sample.cluster, sample.node) for sample in expected
        ]
        assert (1, 2) not in set(zip(clusters.tolist(), nodes.tolist()))

    def test_hot_node_out_of_range_is_rejected(self, monkeypatch):
        clear_stream_pool()
        states = _states(SYSTEM, 0)
        pattern = HotspotTraffic(hot_cluster=0, fraction=0.5, hot_node=4)
        with pytest.raises(ValidationError, match="outside the system"):
            predraw(SYSTEM, pattern, PoissonArrivals(1.0), states, 10)
        # Hot clusters and nodes are checked before the C draws are reached.
        monkeypatch.setattr(native, "_library", _Untouchable())
        counts = np.ones(SYSTEM.total_nodes, dtype=np.int64)
        for hot_cluster, hot_node in ((0, 4), (0, -2), (4, -1), (-1, -1)):
            with pytest.raises(ValidationError, match="outside the system"):
                native.draw_messages(
                    [4, 8, 8, 4], counts, states, "hotspot", 0.5, hot_cluster, hot_node
                )

    def test_permutation_tables_out_of_range_are_rejected(self, monkeypatch):
        clear_stream_pool()
        states = _states(SYSTEM, 0)
        monkeypatch.setattr(native, "_library", _Untouchable())
        counts = np.ones(SYSTEM.total_nodes, dtype=np.int64)
        partners = PermutationTraffic(seed=3).partners(SYSTEM)
        for table in (partners[:-1], partners - 1, partners + 1, None):
            with pytest.raises(ValidationError, match="permutation table"):
                native.draw_messages([4, 8, 8, 4], counts, states, "permutation", table=table)


class TestPeerDraws:
    def test_single_node_peer_cluster_is_rejected(self):
        # Cluster 0 has one node: a message leaving it has no exit peer.
        # The C draw reports the empty range; the wrapper raises.
        block = np.zeros((5, 3, 4), dtype=np.uint64)
        with pytest.raises(ValidationError, match="at least two nodes"):
            native.draw_messages([1, 4], [1, 0, 0, 0, 0], block, "uniform")

    def test_intra_cluster_messages_draw_nothing(self):
        """Peers of the external messages are the stream's first draws."""
        clear_stream_pool()
        states = _states(SYSTEM, 9)
        counts = np.zeros(SYSTEM.total_nodes, dtype=np.int64)
        source = SYSTEM.global_index(1, 5)
        counts[source] = 60
        clusters, nodes, exits, entries = native.draw_messages(
            [4, 8, 8, 4], counts, states, "local", fraction=0.5
        )
        external = clusters != 1
        assert 0 < external.sum() < 60
        assert exits[~external].tolist() == entries[~external].tolist() == [-1] * int(
            (~external).sum()
        )
        peers = RandomStreams(9).get("peers", 1, 5)
        expected = []
        for cluster, node in zip(clusters[external].tolist(), nodes[external].tolist()):
            expected.append((draw_peer(peers, 8, 5), draw_peer(peers, [4, 8, 8, 4][cluster], node)))
        assert list(zip(exits[external].tolist(), entries[external].tolist())) == expected


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
        consumed = state.consumed
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
            return execute(state)

        monkeypatch.setattr("repro.sim.vector.RandomStreams", GuardedStreams)
        monkeypatch.setattr(VectorizedRunState, "execute", armed_execute)
        clear_stream_pool()
        guarded = self._simulator().run(8e-4)
        assert armed
        assert replace(guarded, wall_clock_seconds=0.0) == replace(
            reference, wall_clock_seconds=0.0
        )

    def test_runs_draw_from_a_copy_of_the_pooled_block(self):
        clear_stream_pool()
        simulator = self._simulator()
        simulator.warm_streams()
        (block,) = rng_module._STATE_BLOCKS.values()
        before = block.copy()
        first = simulator.run(8e-4)
        assert list(rng_module._STATE_BLOCKS.values()) == [block]
        assert np.array_equal(block, before) and not block.flags.writeable
        assert replace(simulator.run(8e-4), wall_clock_seconds=0.0) == replace(
            first, wall_clock_seconds=0.0
        )

    def test_unseeded_runs_memoise_nothing(self):
        clear_stream_pool()
        simulator = self._simulator()
        result = simulator.run(8e-4, config=replace(self.CONFIG, seed=None))
        assert result.measured_messages == self.CONFIG.measured_messages
        assert result.seed is None
        assert not rng_module._STATE_BLOCKS and not rng_module._STREAM_POOL
