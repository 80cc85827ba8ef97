"""Unit tests for the topology zoo: families, specs, registry, caches."""

import pytest

from repro.topology.compile import (
    CompiledNetwork,
    CompiledSystem,
    clear_compile_caches,
    compile_system,
)
from repro.topology.fat_tree import ChannelKind
from repro.topology.zoo import (
    FanoutTree,
    KAryFatTree,
    Torus2D,
    TopologySpec,
    ZooSystem,
    build_topology,
    compile_graph,
    register_topology,
    zoo_kinds,
)
from repro.topology.zoo.compile import clear_zoo_compile_caches
from repro.utils.validation import ValidationError


# --------------------------------------------------------------------------- #
# Families
# --------------------------------------------------------------------------- #
class TestKAryFatTree:
    def test_k4_shape(self):
        topo = KAryFatTree(4)
        assert topo.num_nodes == 16
        assert topo.num_switches == 4 + 8 + 8
        # k^2/4 core-agg links per pod pair + (k/2)^2 edge-agg links per pod
        assert topo.num_links == 4 * 2 * 2 + 4 * 4
        topo.validate()

    def test_k_must_be_even(self):
        with pytest.raises(ValidationError):
            KAryFatTree(3)

    def test_hosts_attach_to_edge_switches(self):
        topo = KAryFatTree(4)
        depths = topo.switch_depths()
        for host in range(topo.num_nodes):
            assert depths[topo.host_switch(host)] == 2

    def test_cores_are_multi_root(self):
        """All (k/2)^2 cores sit at depth 0 with no up channels."""
        topo = KAryFatTree(4)
        depths = topo.switch_depths()
        assert depths[: topo.num_cores] == (0,) * topo.num_cores
        children = {child for child, _ in topo.oriented_links()}
        for core in range(topo.num_cores):
            assert core not in children


class TestFanoutTree:
    def test_shape(self):
        topo = FanoutTree(depth=2, fanout=4)
        assert topo.num_switches == 1 + 4
        assert topo.num_nodes == 16
        assert topo.num_links == 4
        topo.validate()

    def test_depth_three(self):
        topo = FanoutTree(depth=3, fanout=2)
        assert topo.num_switches == 1 + 2 + 4
        assert topo.num_nodes == 8
        assert topo.switch_depths() == (0, 1, 1, 2, 2, 2, 2)
        topo.validate()

    def test_fanout_must_be_at_least_two(self):
        with pytest.raises(ValidationError):
            FanoutTree(depth=2, fanout=1)


class TestTorus2D:
    def test_shape(self):
        topo = Torus2D(4, 4)
        assert topo.num_switches == 16
        assert topo.num_nodes == 16
        assert topo.num_links == 32  # 2 links per switch (east + south)
        topo.validate()

    def test_bfs_depths_from_switch_zero(self):
        topo = Torus2D(3, 3)
        depths = topo.switch_depths()
        assert depths[0] == 0
        # Every non-root switch is 1 or 2 wrap-aware hops from (0, 0).
        assert set(depths) == {0, 1, 2}
        topo.validate()

    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValidationError):
            Torus2D(2, 4)


def test_orientation_is_acyclic_and_rooted():
    """Every family's UP digraph descends the (depth, id) key strictly."""
    for topo in (KAryFatTree(4), FanoutTree(depth=2, fanout=4), Torus2D(4, 4)):
        depths = topo.switch_depths()
        for child, parent in topo.oriented_links():
            assert (depths[child], child) > (depths[parent], parent)


# --------------------------------------------------------------------------- #
# Specs and the registry
# --------------------------------------------------------------------------- #
class TestTopologySpec:
    def test_builtin_kinds_registered(self):
        assert {"fattree", "tree", "torus"} <= set(zoo_kinds())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            TopologySpec("mobius", {})

    def test_token_encodes_every_parameter(self):
        spec = TopologySpec("torus", {"rows": 4, "cols": 6})
        assert spec.token == "zoo-torus-cols6-rows4"

    def test_identity_distinguishes_parameter_collisions(self):
        a = TopologySpec("torus", {"rows": 4, "cols": 4})
        b = TopologySpec("torus", {"rows": 4, "cols": 6})
        assert a.identity != b.identity
        assert a.token != b.token

    def test_build_matches_direct_construction(self):
        spec = TopologySpec("fattree", {"k": 4})
        topo = build_topology(spec)
        assert isinstance(topo, KAryFatTree)
        assert topo.num_nodes == KAryFatTree(4).num_nodes

    def test_custom_family_registration(self):
        calls = []

        def builder(side: int):
            calls.append(side)
            return Torus2D(side, side)

        register_topology("square-torus", builder)
        try:
            spec = TopologySpec("square-torus", {"side": 3})
            assert build_topology(spec).num_nodes == 9
            assert calls == [3]
        finally:
            from repro.topology.zoo.spec import ZOO_BUILDERS

            ZOO_BUILDERS.pop("square-torus", None)
            clear_zoo_compile_caches()


# --------------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------------- #
class TestCompileGraph:
    def test_channel_enumeration_matches_arrays(self):
        spec = TopologySpec("tree", {"depth": 2, "fanout": 4})
        graph = compile_graph(spec)
        topo = build_topology(spec)
        assert graph.num_channels == topo.num_channels
        assert graph.channels == tuple(topo.channels())
        for cid, channel in enumerate(graph.channels):
            assert graph.channel_ids[channel] == cid
            assert bool(graph.is_node_channel[cid]) == channel.kind.is_node_channel

    def test_injection_ejection_pairs_lead(self):
        graph = compile_graph(TopologySpec("torus", {"rows": 3, "cols": 3}))
        for host in range(graph.num_nodes):
            assert graph.channels[2 * host].kind == ChannelKind.INJECTION
            assert graph.channels[2 * host + 1].kind == ChannelKind.EJECTION
        assert {channel.kind for channel in graph.channels[2 * graph.num_nodes :]} == {
            ChannelKind.UP,
            ChannelKind.DOWN,
        }

    def test_compile_is_cached_by_identity(self):
        spec = TopologySpec("torus", {"rows": 3, "cols": 3})
        assert compile_graph(spec) is compile_graph(
            TopologySpec("torus", {"rows": 3, "cols": 3})
        )

    def test_colliding_sizes_never_share_arrays(self):
        """Same node count, different family: distinct compiled artifacts."""
        a = compile_graph(TopologySpec("fattree", {"k": 4}))  # 16 hosts
        b = compile_graph(TopologySpec("tree", {"depth": 2, "fanout": 4}))  # 16 hosts
        c = compile_graph(TopologySpec("torus", {"rows": 4, "cols": 4}))  # 16 hosts
        assert a.num_nodes == b.num_nodes == c.num_nodes == 16
        assert a is not b and b is not c and a is not c
        assert len({a.name, b.name, c.name}) == 3
        # fattree(4) and torus(4x4) even share a channel count (96); the
        # wiring still must differ.
        assert a.num_channels == c.num_channels
        assert a.channels != c.channels


class TestZooSlotLayout:
    def test_single_cluster_facade(self):
        core = compile_system(TopologySpec("torus", {"rows": 4, "cols": 4}))
        assert core.system.num_clusters == 1
        assert core.system.total_nodes == 16
        assert core.system.cluster_sizes == (16,)
        assert core.system.locate(7) == (0, 7)
        assert core.system.global_index(0, 7) == 7
        assert core.system.same_cluster(0, 15)
        assert [cluster for cluster, _ in core.system.nodes()] == [0] * 16
        with pytest.raises(ValidationError, match="cluster index 1 out of range"):
            core.system.cluster(1)
        with pytest.raises(ValidationError, match="local index 16 out of range"):
            core.system.global_index(0, 16)
        with pytest.raises(ValidationError, match="global index 16 out of range"):
            core.system.locate(16)

    def test_relay_slots_exist_but_are_outside_graph(self):
        spec = TopologySpec("fattree", {"k": 4})
        core = compile_system(spec)
        graph = compile_graph(spec)
        assert core.concentrator_base == graph.num_channels
        assert core.dispatcher_base == graph.num_channels + 1
        assert core.total_slots == graph.num_channels + 2
        assert core.pool_index_list[-2:] == [3, 3]
        assert set(core.pool_index_list[: graph.num_channels]) == {0}

    def test_utilisation_labels_are_zoo_specific(self):
        core = compile_system(TopologySpec("tree", {"depth": 2, "fanout": 4}))
        assert core.utilisation_labels == ("network", "external", "crossing", "relays")

    def test_compile_system_dispatches_on_spec_type(self):
        spec = TopologySpec("torus", {"rows": 3, "cols": 3})
        core = compile_system(spec)
        assert isinstance(core, CompiledSystem)
        assert isinstance(core.system, ZooSystem)
        assert core is compile_system(TopologySpec("torus", {"rows": 3, "cols": 3}))


def test_clear_compile_caches_clears_zoo_too():
    spec = TopologySpec("torus", {"rows": 3, "cols": 3})
    before = compile_graph(spec)
    clear_compile_caches()
    after = compile_graph(spec)
    assert before is not after
    assert isinstance(after, CompiledNetwork)
