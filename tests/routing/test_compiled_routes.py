"""Round-trip and differential tests of the compiled route tables.

Every compiled route must decompile to the *exact* Channel sequence the
``UpDownRouter`` produces — the compiler is a representation change, never a
routing change — including for asymmetric heterogeneous organisations.  The
CSR tables come from a closed-form array kernel, so they are also compared
whole against a reference built the slow way: one router walk per pair,
ids looked up by ``Channel``.  The flat layout the native event core reads
is checked against the same walk.
"""

from functools import lru_cache

import numpy as np
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
            full.append(())
            has_switch.append(False)
            ascending.append(())
            descending.append(())
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
    return [tuple(cid + offset for cid in ids) for ids in table]


def rows(table, offset=0, pairs=None):
    """Every route of a CSR table as id tuples, shifted by ``offset``."""
    return [table.route(pair, offset) for pair in range(pairs or table.num_pairs)]


def flat_rows(flat, first, pairs, shift):
    """``pairs`` routes of a :class:`FlatRoutes` table starting at ``first``."""
    offsets = flat.offsets.tolist()
    ids = flat.ids.tolist()
    return [
        tuple(cid + shift for cid in ids[offsets[first + pair] : offsets[first + pair + 1]])
        for pair in range(pairs)
    ]


class TestKernelMatchesRouterWalk:
    """The closed-form kernel against the router walk, table for table."""

    @pytest.mark.parametrize("m,n", SHAPES + FIGURE_SHAPES)
    def test_shape_tables_equal_the_walk(self, m, n):
        full, has_switch, ascending, descending = walk_tables(m, n)
        table = CompiledTreeRoutes(m, n)
        assert rows(table.full) == full
        assert table.has_switch.tolist() == has_switch
        assert rows(table.ascending) == ascending
        assert rows(table.descending) == descending
        # int32 CSR arrays: the layout the native event core reads.
        for csr in (table.full, table.ascending, table.descending):
            assert csr.offsets.dtype == csr.ids.dtype == np.int32
            assert csr.offsets[0] == 0 and csr.offsets[-1] == len(csr.ids)
        for route, up, down in zip(full, ascending, descending):
            assert route == up + down

    @pytest.mark.parametrize("total_nodes", [1120, 544])
    def test_table1_system_routes_equal_the_walk(self, total_nodes):
        spec = table1_system(total_nodes)
        core = compile_system(spec)
        routes = compile_system_routes(spec)
        flat = routes.flat()
        for index, height in enumerate(spec.cluster_heights):
            full, has_switch, ascending, descending = walk_tables(spec.m, height)
            pairs = len(full)
            intra = flat.intra[index]
            assert flat.icn1_shift[index] == core.icn1_offsets[index]
            assert flat.ecn1_shift[index] == core.ecn1_offsets[index]
            assert flat_rows(flat, intra, pairs, core.icn1_offsets[index]) == shifted(
                full, core.icn1_offsets[index]
            )
            assert flat.has_switch[intra : intra + pairs].tolist() == has_switch
            assert flat_rows(flat, flat.ascend[index], pairs, core.ecn1_offsets[index]) == (
                shifted(ascending, core.ecn1_offsets[index])
            )
            assert flat_rows(flat, flat.descend[index], pairs, core.ecn1_offsets[index]) == (
                shifted(descending, core.ecn1_offsets[index])
            )
        icn2_full = walk_tables(spec.m, spec.icn2_height)[0]
        assert flat_rows(flat, flat.icn2, len(icn2_full), core.icn2_offset) == shifted(
            icn2_full, core.icn2_offset
        )
        assert flat.icn2_shift == core.icn2_offset
        # Same-shape clusters share one copy of each table.
        heights = spec.cluster_heights
        for a, b in zip(range(len(heights)), range(1, len(heights))):
            assert (flat.intra[a] == flat.intra[b]) == (heights[a] == heights[b])
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
    def test_any_row_equals_the_walk(self, m, n, data):
        table = compile_tree_routes(m, n)
        num_nodes = table.num_nodes
        source = data.draw(st.integers(min_value=0, max_value=num_nodes - 1))
        row = range(source * num_nodes, (source + 1) * num_nodes)
        full, has_switch, ascending, descending = walk_row(m, n, source)
        assert [table.full.route(pair) for pair in row] == full
        assert table.has_switch[row.start : row.stop].tolist() == has_switch
        assert [table.ascending.route(pair) for pair in row] == ascending
        assert [table.descending.route(pair) for pair in row] == descending

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
                    assert table.full.route(source * tree.num_nodes + dest) == ()
                    continue
                compiled = table.full.route(source * tree.num_nodes + dest)
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
                    decompile(m, n, table.ascending.route(index))
                    == router.ascending_leg(source, other).channels
                )
                assert (
                    decompile(m, n, table.descending.route(index))
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
                assert table.has_switch[source * tree.num_nodes + dest] == expected

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
                    compiled, has_switch = routes.intra_route(index, source, dest)
                    local = tuple(cid - offset for cid in compiled)
                    assert has_switch == (router.route(source, dest).switch_channels > 0)
                    assert (
                        decompile(spec.m, cluster.height, local)
                        == router.route(source, dest).channels
                    )

    @pytest.mark.parametrize("spec", HETERO_SPECS, ids=lambda spec: spec.name)
    def test_ecn1_legs_round_trip_in_every_cluster(self, spec):
        core = compile_system(spec)
        routes = compile_system_routes(spec)
        clusters = core.system.clusters
        for index, cluster in enumerate(clusters):
            router = UpDownRouter(cluster.ecn1)
            offset = core.ecn1_offsets[index]
            nodes = cluster.num_nodes
            # Leave through ``exit`` towards another cluster, and arrive in
            # this one through ``entry``: the journeys' first and last legs.
            other_index = (index + 1) % len(clusters)
            for source in range(nodes):
                for peer in range(nodes):
                    if source == peer:
                        continue
                    leaving = routes.external_route(index, source, peer, other_index, 1, 0)
                    arriving = routes.external_route(other_index, 0, 1, index, peer, source)
                    ascent = leaving[: leaving.index(routes.concentrator[index])]
                    descent = arriving[arriving.index(routes.dispatcher[index]) + 1 :]
                    assert (
                        decompile(spec.m, cluster.height, tuple(cid - offset for cid in ascent))
                        == router.ascending_leg(source, peer).channels
                    )
                    assert (
                        decompile(spec.m, cluster.height, tuple(cid - offset for cid in descent))
                        == router.descending_leg(peer, source).channels
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
                journey = routes.external_route(source, 0, 1, dest, 1, 0)
                start = journey.index(routes.concentrator[source]) + 1
                crossing = journey[start : journey.index(routes.dispatcher[dest])]
                local = tuple(cid - core.icn2_offset for cid in crossing)
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
