"""Round-trip and differential tests of the compiled route tables.

Every compiled route must decompile to the *exact* Channel sequence the
``UpDownRouter`` produces — the compiler is a representation change, never a
routing change — including for asymmetric heterogeneous organisations.  The
tables come from a closed-form array kernel, so they are also compared
whole against a reference built the slow way: one router walk per pair,
ids looked up by ``Channel``.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.configs import table1_system
from repro.routing import UpDownRouter, compile_system_routes, compile_tree_routes
from repro.routing.compile import CompiledTreeRoutes, decompile, route_table_size
from repro.topology import ChannelKind, MultiClusterSpec, compile_system
from repro.topology.compile import compile_tree, node_channel_ids, up_channel_id
from repro.topology.fat_tree import shared_tree

SHAPES = [(4, 1), (4, 2), (6, 2), (4, 3), (8, 2)]

#: The tall shapes fig3 (m=8) and fig4 (m=4) really compile.
FIGURE_SHAPES = [(8, 3), (4, 4), (4, 5)]

#: Asymmetric heterogeneous organisations (mixed tree heights, including the
#: integration-test system and a taller m=4 mix like the N=544 row's groups).
HETERO_SPECS = [
    MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="tiny"),
    MultiClusterSpec(m=4, cluster_heights=(3, 1, 2, 1), name="lopsided"),
]


def walk_row(m, n, source):
    """Reference ``(full, has_switch, ascending, descending)`` of one source
    row, built by walking the router once per pair and hashing channels."""
    tree = shared_tree(m, n)
    router = UpDownRouter(tree)
    ids = compile_tree(m, n).channel_ids
    full, has_switch, ascending, descending = [], [], [], []
    for other in range(tree.num_nodes):
        if other == source:
            full.append(None)
            has_switch.append(False)
            ascending.append(None)
            descending.append(None)
            continue
        route = router.route(source, other)
        full.append(tuple(ids[channel] for channel in route))
        has_switch.append(route.switch_channels > 0)
        ascending.append(tuple(ids[c] for c in router.ascending_leg(source, other)))
        descending.append(tuple(ids[c] for c in router.descending_leg(source, other)))
    return full, has_switch, ascending, descending


@lru_cache(maxsize=None)
def walk_tables(m, n):
    """Reference tables of a whole shape, in ``CompiledTreeRoutes`` order."""
    tables = ([], [], [], [])
    for source in range(shared_tree(m, n).num_nodes):
        for table, row in zip(tables, walk_row(m, n, source)):
            table.extend(row)
    return tables


def shifted(table, offset):
    return [None if ids is None else tuple(cid + offset for cid in ids) for ids in table]


class TestKernelMatchesRouterWalk:
    """The closed-form kernel against the router walk, table for table."""

    @pytest.mark.parametrize("m,n", SHAPES + FIGURE_SHAPES)
    def test_shape_tables_equal_the_walk(self, m, n):
        full, has_switch, ascending, descending = walk_tables(m, n)
        table = CompiledTreeRoutes(m, n)
        assert table.full == full
        assert table.full_has_switch == has_switch
        assert table.ascending == ascending
        assert table.descending == descending
        # Plain Python ints and bools, not NumPy scalars (equality alone
        # would not tell): the tables feed the simulator's hot path.
        assert {type(cid) for ids in table.full if ids for cid in ids} == {int}
        assert {type(flag) for flag in table.full_has_switch} == {bool}
        for route, up, down in zip(table.full, table.ascending, table.descending):
            assert route == (None if up is None else up + down)

    @pytest.mark.parametrize("total_nodes", [1120, 544])
    def test_table1_system_routes_equal_the_walk(self, total_nodes):
        spec = table1_system(total_nodes)
        core = compile_system(spec)
        routes = compile_system_routes(spec)
        for index, height in enumerate(spec.cluster_heights):
            full, has_switch, ascending, descending = walk_tables(spec.m, height)
            assert routes.intra[index] == shifted(full, core.icn1_offsets[index])
            assert routes.intra_has_switch[index] == has_switch
            assert routes.ascend[index] == shifted(ascending, core.ecn1_offsets[index])
            assert routes.descend[index] == shifted(descending, core.ecn1_offsets[index])
        icn2_full = walk_tables(spec.m, spec.icn2_height)[0]
        assert routes.icn2 == shifted(icn2_full, core.icn2_offset)
        assert routes.concentrator == tuple(
            core.concentrator_slot(c) for c in range(spec.num_clusters)
        )
        assert routes.dispatcher == tuple(
            core.dispatcher_slot(c) for c in range(spec.num_clusters)
        )

    @given(
        m=st.sampled_from([2, 4, 6, 8]),
        n=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_lazy_row_equals_the_walk(self, m, n, data):
        table = CompiledTreeRoutes(m, n, lazy=True)
        num_nodes = table.num_nodes
        source = data.draw(st.integers(min_value=0, max_value=num_nodes - 1))
        table.ensure_pair(source, (source + 1) % num_nodes)
        assert table.compiled_rows == {source}
        row = slice(source * num_nodes, (source + 1) * num_nodes)
        full, has_switch, ascending, descending = walk_row(m, n, source)
        assert table.full[row] == full
        assert table.full_has_switch[row] == has_switch
        assert table.ascending[row] == ascending
        assert table.descending[row] == descending

    @pytest.mark.parametrize("m,n", SHAPES + FIGURE_SHAPES)
    def test_id_formula_equals_the_channel_enumeration(self, m, n):
        tree = shared_tree(m, n)
        compiled = compile_tree(m, n)
        rank = {
            switch: position
            for level in range(n)
            for position, switch in enumerate(tree.switches_at_level(level))
        }
        for channel, cid in compiled.channel_ids.items():
            if channel.kind is ChannelKind.INJECTION:
                assert node_channel_ids(channel.source.index)[0] == cid
            elif channel.kind is ChannelKind.EJECTION:
                assert node_channel_ids(channel.target.index)[1] == cid
            else:
                up = channel.kind is ChannelKind.UP
                lower, upper = (
                    (channel.source, channel.target) if up else (channel.target, channel.source)
                )
                digit = upper.address[n - 2 - lower.level]
                expected = up_channel_id(
                    tree.num_nodes, tree.k, lower.level, rank[lower], digit
                )
                assert expected + (0 if up else 1) == cid


class TestTreeRouteRoundTrip:
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_full_routes_round_trip_for_every_ordered_pair(self, m, n):
        tree = shared_tree(m, n)
        router = UpDownRouter(tree)
        table = compile_tree_routes(m, n)
        pairs = 0
        for source in range(tree.num_nodes):
            for dest in range(tree.num_nodes):
                if source == dest:
                    assert table.full[source * tree.num_nodes + dest] is None
                    continue
                compiled = table.full[source * tree.num_nodes + dest]
                assert decompile(m, n, compiled) == router.route(source, dest).channels
                pairs += 1
        assert pairs == route_table_size(m, n)

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_legs_round_trip_for_every_ordered_pair(self, m, n):
        tree = shared_tree(m, n)
        router = UpDownRouter(tree)
        table = compile_tree_routes(m, n)
        for source in range(tree.num_nodes):
            for other in range(tree.num_nodes):
                if source == other:
                    continue
                index = source * tree.num_nodes + other
                assert (
                    decompile(m, n, table.ascending[index])
                    == router.ascending_leg(source, other).channels
                )
                assert (
                    decompile(m, n, table.descending[index])
                    == router.descending_leg(source, other).channels
                )

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_has_switch_flag_matches_the_route(self, m, n):
        tree = shared_tree(m, n)
        router = UpDownRouter(tree)
        table = compile_tree_routes(m, n)
        for source in range(tree.num_nodes):
            for dest in range(tree.num_nodes):
                if source == dest:
                    continue
                route = router.route(source, dest)
                expected = route.switch_channels > 0
                assert table.full_has_switch[source * tree.num_nodes + dest] == expected

    def test_tables_are_cached_per_shape(self):
        assert compile_tree_routes(4, 2) is compile_tree_routes(4, 2)


class TestSystemRouteRoundTrip:
    @pytest.mark.parametrize("spec", HETERO_SPECS, ids=lambda spec: spec.name)
    def test_intra_routes_round_trip_in_every_cluster(self, spec):
        core = compile_system(spec)
        routes = compile_system_routes(spec)
        for index, cluster in enumerate(core.system.clusters):
            router = UpDownRouter(cluster.icn1)
            offset = core.icn1_offsets[index]
            nodes = cluster.num_nodes
            for source in range(nodes):
                for dest in range(nodes):
                    if source == dest:
                        continue
                    compiled = routes.intra[index][source * nodes + dest]
                    local = tuple(cid - offset for cid in compiled)
                    assert (
                        decompile(spec.m, cluster.height, local)
                        == router.route(source, dest).channels
                    )

    @pytest.mark.parametrize("spec", HETERO_SPECS, ids=lambda spec: spec.name)
    def test_ecn1_legs_round_trip_in_every_cluster(self, spec):
        core = compile_system(spec)
        routes = compile_system_routes(spec)
        for index, cluster in enumerate(core.system.clusters):
            router = UpDownRouter(cluster.ecn1)
            offset = core.ecn1_offsets[index]
            nodes = cluster.num_nodes
            for source in range(nodes):
                for other in range(nodes):
                    if source == other:
                        continue
                    pair = source * nodes + other
                    ascent = tuple(cid - offset for cid in routes.ascend[index][pair])
                    descent = tuple(cid - offset for cid in routes.descend[index][pair])
                    assert (
                        decompile(spec.m, cluster.height, ascent)
                        == router.ascending_leg(source, other).channels
                    )
                    assert (
                        decompile(spec.m, cluster.height, descent)
                        == router.descending_leg(source, other).channels
                    )

    @pytest.mark.parametrize("spec", HETERO_SPECS, ids=lambda spec: spec.name)
    def test_icn2_routes_round_trip(self, spec):
        core = compile_system(spec)
        routes = compile_system_routes(spec)
        router = UpDownRouter(core.system.icn2)
        C = spec.num_clusters
        for source in range(C):
            for dest in range(C):
                if source == dest:
                    continue
                compiled = routes.icn2[source * C + dest]
                local = tuple(cid - core.icn2_offset for cid in compiled)
                assert (
                    decompile(spec.m, spec.icn2_height, local)
                    == router.route(source, dest).channels
                )

    def test_relay_slots_match_the_core(self):
        spec = HETERO_SPECS[0]
        core = compile_system(spec)
        routes = compile_system_routes(spec)
        for cluster in range(spec.num_clusters):
            assert routes.concentrator[cluster] == core.concentrator_slot(cluster)
            assert routes.dispatcher[cluster] == core.dispatcher_slot(cluster)

    def test_system_tables_are_cached_per_spec(self):
        spec = HETERO_SPECS[0]
        assert compile_system_routes(spec) is compile_system_routes(spec)


class TestLazyRouteTables:
    """Tall shapes compile per source row on demand (O(pairs used))."""

    def test_threshold_selects_lazy_mode(self):
        from repro.routing.compile import LAZY_NODE_THRESHOLD

        eager = CompiledTreeRoutes(4, 2)  # 8 nodes
        assert not eager.lazy
        assert shared_tree(8, 4).num_nodes >= LAZY_NODE_THRESHOLD
        lazy = CompiledTreeRoutes(8, 4)
        assert lazy.lazy
        assert lazy.compiled_rows == set()

    def test_single_pair_query_compiles_only_its_row(self):
        table = CompiledTreeRoutes(8, 4)
        num_nodes = table.num_nodes
        table.ensure_pair(3, 100)
        assert table.compiled_rows == {3}
        # The whole source row exists; every other row is untouched.
        for other in range(num_nodes):
            entry = table.full[3 * num_nodes + other]
            assert (entry is None) == (other == 3)
        assert table.full[5 * num_nodes + 100] is None
        # A second query on the same row compiles nothing new.
        table.ensure_pair(3, 7)
        assert table.compiled_rows == {3}

    def test_lazy_tables_match_eager_tables(self):
        eager = CompiledTreeRoutes(4, 2, lazy=False)
        lazy = CompiledTreeRoutes(4, 2, lazy=True)
        num_nodes = eager.num_nodes
        for source in range(num_nodes):
            for other in range(num_nodes):
                if source == other:
                    continue
                pair = source * num_nodes + other
                lazy.ensure_pair(source, other)
                assert lazy.full[pair] == eager.full[pair]
                assert lazy.full_has_switch[pair] == eager.full_has_switch[pair]
                assert lazy.ascending[pair] == eager.ascending[pair]
                assert lazy.descending[pair] == eager.descending[pair]

    def test_lazy_views_rebase_like_eager_system_tables(self):
        from repro.routing.compile import LazyFlagTable, LazyRebasedTable

        eager = CompiledTreeRoutes(4, 2, lazy=False)
        lazy_shape = CompiledTreeRoutes(4, 2, lazy=True)
        offset = 1000
        view = LazyRebasedTable(lazy_shape, lazy_shape.full, offset)
        flags = LazyFlagTable(lazy_shape)
        reference = eager.rebased("full", offset)
        assert reference == shifted(eager.full, offset)
        assert eager.rebased("full", 0) is eager.full
        num_nodes = eager.num_nodes
        assert len(view) == len(reference)
        for pair in range(num_nodes * num_nodes):
            assert view[pair] == reference[pair]
            assert flags[pair] == eager.full_has_switch[pair]
        # Lazy fill happened row by row as the scan touched sources.
        assert lazy_shape.compiled_rows == set(range(num_nodes))
