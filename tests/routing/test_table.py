"""Tests of routing tables and the traffic-balance accounting."""

import pytest

from repro.routing import RoutingTable, UpDownRouter, channel_load_histogram
from repro.routing.compile import compile_tree_routes, decompile
from repro.routing.table import load_by_kind_and_level
from repro.topology import ChannelKind, MPortNTree
from repro.utils import ValidationError


class TestRoutingTable:
    def test_routes_are_cached(self):
        table = RoutingTable(MPortNTree(4, 2))
        first = table.route(0, 5)
        second = table.route(0, 5)
        assert first is second
        assert len(table) == 1

    def test_cached_routes_equal_fresh_router_output(self):
        tree = MPortNTree(4, 2)
        table = RoutingTable(tree)
        router = UpDownRouter(tree)
        for source in range(tree.num_nodes):
            for dest in range(tree.num_nodes):
                if source != dest:
                    assert table.route(source, dest).channels == router.route(
                        source, dest
                    ).channels

    def test_precompute_is_idempotent(self):
        tree = MPortNTree(4, 2)
        table = RoutingTable(tree)
        table.precompute()
        cached = table.route(0, 5)
        table.precompute()
        assert table.route(0, 5) is cached
        assert len(table) == tree.num_nodes * (tree.num_nodes - 1)

    def test_table_agrees_with_the_compiled_route_tables(self):
        tree = MPortNTree(4, 3)
        table = RoutingTable(tree)
        compiled = compile_tree_routes(4, 3)
        for source, dest in ((0, 1), (0, 7), (3, 12), (15, 0)):
            ids = compiled.full.route(source * tree.num_nodes + dest)
            assert decompile(4, 3, ids) == table.route(source, dest).channels

    def test_self_route_rejected(self):
        table = RoutingTable(MPortNTree(4, 2))
        with pytest.raises(ValidationError):
            table.route(3, 3)

    def test_precompute_fills_all_ordered_pairs(self):
        tree = MPortNTree(4, 2)
        table = RoutingTable(tree)
        table.precompute()
        assert len(table) == tree.num_nodes * (tree.num_nodes - 1)

    def test_routes_iterator_yields_computed_routes(self):
        table = RoutingTable(MPortNTree(4, 2))
        table.route(0, 1)
        table.route(0, 2)
        assert len(list(table.routes())) == 2


class TestLoadBalance:
    @pytest.mark.parametrize("m,n", [(2, 2), (4, 2), (4, 3), (8, 2), (6, 2)])
    def test_loads_are_balanced_within_each_channel_class(self, m, n):
        summary = load_by_kind_and_level(MPortNTree(m, n))
        for (kind, level), (low, high) in summary.items():
            assert low == high, f"unbalanced {kind} channels at level {level}"

    def test_injection_load_equals_destinations_per_source(self):
        tree = MPortNTree(4, 2)
        loads = channel_load_histogram(tree)
        injection_loads = [
            load for channel, load in loads.items() if channel.kind == ChannelKind.INJECTION
        ]
        assert set(injection_loads) == {tree.num_nodes - 1}

    def test_every_pair_route_is_counted(self):
        tree = MPortNTree(4, 2)
        loads = channel_load_histogram(tree)
        total_crossings = sum(loads.values())
        # Total crossings equal the sum of route lengths over all ordered
        # pairs, which equals mean distance * number of pairs.
        from repro.topology import distance_histogram

        expected = sum(d * count for d, count in distance_histogram(tree).items())
        assert total_crossings == expected

    def test_up_channel_loads_smaller_than_node_channel_loads(self):
        # Up channels only carry traffic leaving the subtree, so their load
        # is below the injection channels' load.
        tree = MPortNTree(4, 3)
        summary = load_by_kind_and_level(tree)
        assert summary[("up", 0)][0] < summary[("injection", 0)][0]
        # And deeper levels carry less than lower levels.
        assert summary[("up", 1)][0] < summary[("up", 0)][0]
