"""Tests of the topology compilation pass (dense ids + one slot layout)."""

import pytest

from repro.topology import (
    MPortNTree,
    MultiClusterSpec,
    compile_system,
    compile_tree,
)
from repro.topology.compile import CompiledSystem
from repro.topology.zoo import TopologySpec, compile_graph
from repro.utils import ValidationError

HETERO = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny")

#: One spec per family: the heterogeneous system and each registered zoo member.
LAYOUT_SPECS = [
    HETERO,
    TopologySpec("fattree", {"k": 4}),
    TopologySpec("tree", {"depth": 2, "fanout": 4}),
    TopologySpec("torus", {"rows": 4, "cols": 4}),
]


class TestCompiledTree:
    @pytest.mark.parametrize("m,n", [(4, 1), (4, 2), (6, 2), (4, 3), (8, 2)])
    def test_channel_ids_are_a_dense_bijection(self, m, n):
        tree = MPortNTree(m, n)
        compiled = compile_tree(m, n)
        assert compiled.num_channels == tree.num_channels
        assert sorted(compiled.channel_ids.values()) == list(range(tree.num_channels))
        for cid, channel in enumerate(compiled.channels):
            assert compiled.index_of(channel) == cid
            assert compiled.channel_at(cid) == channel

    def test_metadata_arrays_match_the_channel_objects(self):
        compiled = compile_tree(4, 2)
        for cid, channel in enumerate(compiled.channels):
            assert compiled.is_node_channel[cid] == channel.kind.is_node_channel

    def test_compile_tree_is_cached_per_shape(self):
        assert compile_tree(4, 2) is compile_tree(4, 2)

    def test_foreign_channel_rejected(self):
        compiled = compile_tree(4, 2)
        other = compile_tree(4, 3)
        with pytest.raises(ValidationError):
            compiled.index_of(other.channels[-1])

    def test_channel_id_out_of_range_rejected(self):
        compiled = compile_tree(4, 2)
        with pytest.raises(ValidationError):
            compiled.channel_at(compiled.num_channels)


class TestCompiledSystem:
    @pytest.fixture(scope="class")
    def core(self) -> CompiledSystem:
        return compile_system(HETERO)

    def test_slot_space_covers_every_network_plus_relays(self, core):
        expected = (
            2 * sum(compile_tree(4, height).num_channels for height in HETERO.cluster_heights)
            + compile_tree(4, HETERO.icn2_height).num_channels
            + 2 * HETERO.num_clusters
        )
        assert core.total_slots == expected
        assert len(core.is_node_channel_list) == core.total_slots
        assert len(core.pool_index_list) == core.total_slots

    def test_blocks_are_disjoint_and_ordered(self, core):
        offsets = [*core.icn1_offsets, *core.ecn1_offsets, core.icn2_offset]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)
        icn2 = compile_tree(4, HETERO.icn2_height)
        assert core.concentrator_base == core.icn2_offset + icn2.num_channels
        assert core.dispatcher_base == core.concentrator_base + HETERO.num_clusters

    def test_pool_index_groups_each_block(self, core):
        C = HETERO.num_clusters
        for cluster in range(C):
            start = core.icn1_offsets[cluster]
            assert core.pool_index_list[start] == cluster
            start = core.ecn1_offsets[cluster]
            assert core.pool_index_list[start] == C + cluster
        icn2 = compile_tree(4, HETERO.icn2_height)
        icn2_pools = core.pool_index_list[core.icn2_offset : core.concentrator_base]
        assert icn2_pools == [2 * C] * icn2.num_channels
        assert core.pool_index_list[core.concentrator_slot(0)] == 2 * C + 1
        # The relay pseudo-pool is the last of the 2C + 2 pools.
        assert max(core.pool_index_list) == 2 * C + 1

    def test_relay_slots_are_switch_class(self, core):
        times = core.header_times(t_cn=0.3, t_cs=0.5)
        for cluster in range(HETERO.num_clusters):
            assert times[core.concentrator_slot(cluster)] == 0.5
            assert times[core.dispatcher_slot(cluster)] == 0.5

    def test_header_times_follow_the_node_channel_flag(self, core):
        times = core.header_times(t_cn=0.3, t_cs=0.5)
        for slot, is_node in enumerate(core.is_node_channel_list):
            assert times[slot] == (0.3 if is_node else 0.5)

    def test_compile_system_is_cached_per_spec(self):
        assert compile_system(HETERO) is compile_system(HETERO)

    def test_every_block_lays_out_its_shapes_compiled_tree(self, core):
        heights = HETERO.cluster_heights
        blocks = [
            *zip(core.icn1_offsets, heights),
            *zip(core.ecn1_offsets, heights),
            (core.icn2_offset, HETERO.icn2_height),
        ]
        for start, height in blocks:
            tree = compile_tree(4, height)
            flags = core.is_node_channel_list[start : start + tree.num_channels]
            assert flags == tree.is_node_channel.tolist()


def _blocks(spec):
    """``(compiled network, pool)`` of each block in slot order, and the labels.

    Stated independently of :class:`CompiledSystem`: a multi-cluster system
    lays out every ICN1, every ECN1 and the ICN2; a zoo topology its graph
    as the one cluster's ICN1.
    """
    if isinstance(spec, MultiClusterSpec):
        trees = [compile_tree(spec.m, height) for height in spec.cluster_heights]
        C = len(trees)
        blocks = [(tree, c) for c, tree in enumerate(trees)]
        blocks += [(tree, C + c) for c, tree in enumerate(trees)]
        blocks.append((compile_tree(spec.m, spec.icn2_height), 2 * C))
        return blocks, ("ICN1", "ECN1", "ICN2", "concentrators")
    return [(compile_graph(spec), 0)], ("network", "external", "crossing", "relays")


def _equal_copy(spec):
    if isinstance(spec, MultiClusterSpec):
        return MultiClusterSpec(m=spec.m, cluster_heights=spec.cluster_heights, name=spec.name)
    return TopologySpec(spec.kind, dict(spec.params))


@pytest.mark.parametrize("spec", LAYOUT_SPECS, ids=lambda spec: spec.name)
def test_one_slot_layout_for_both_families(spec):
    core = compile_system(spec)
    assert isinstance(core, CompiledSystem)
    blocks, labels = _blocks(spec)
    C = core.system.num_clusters
    assert C == spec.num_clusters
    assert core.total_slots == sum(network.num_channels for network, _ in blocks) + 2 * C
    assert len(core.pool_index_list) == len(core.is_node_channel_list) == core.total_slots
    slot = 0
    for network, pool in blocks:
        for channel in network.channels:
            assert core.pool_index_list[slot] == pool
            assert core.is_node_channel_list[slot] == channel.kind.is_node_channel
            slot += 1
    # The relay block: C concentrators, then C dispatchers, in the last pool.
    assert core.concentrator_base == slot
    assert core.dispatcher_base == slot + C
    assert [core.concentrator_slot(c) for c in range(C)] == list(range(slot, slot + C))
    assert [core.dispatcher_slot(c) for c in range(C)] == list(range(slot + C, slot + 2 * C))
    assert core.pool_index_list[slot:] == [2 * C + 1] * (2 * C)
    assert core.is_node_channel_list[slot:] == [False] * (2 * C)
    for cluster in (-1, C):
        with pytest.raises(ValidationError, match="cluster index"):
            core.concentrator_slot(cluster)
        with pytest.raises(ValidationError, match="cluster index"):
            core.dispatcher_slot(cluster)
    assert core.utilisation_labels == labels
    # Cached per spec identity: an equal spec built anew gets the same object.
    assert compile_system(_equal_copy(spec)) is core
