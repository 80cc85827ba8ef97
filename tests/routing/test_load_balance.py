"""The balanced-traffic claim, counted on the compiled route tables.

The routing algorithm's claim ("the switch contention problem will be
extinguished") is checked quantitatively by counting how many ordered pair
routes cross every channel.  Under uniform traffic every ordered pair is
equally likely, so that count is proportional to the channel utilisation.
For the destination-based deterministic routing used here the load is
perfectly balanced within each channel class (all up-channels of one level
carry the same count, ditto down-channels), which is what lets the
analytical model describe a whole stage by a single channel rate
(Eq. 10-12).
"""

from typing import Dict, Tuple

import numpy as np
import pytest

from repro.routing import compile_tree_routes
from repro.topology import ChannelKind, MPortNTree, distance_histogram
from repro.topology.compile import compile_tree


def load_by_kind_and_level(m: int, n: int) -> Dict[Tuple[str, int], Tuple[int, int]]:
    """The (min, max) pair-route crossings per (channel kind, switch level).

    The level is that of the switch end of a node channel, or of the lower
    switch of a switch-switch channel.
    """
    network = compile_tree(m, n)
    crossings = np.bincount(
        compile_tree_routes(m, n).full.ids, minlength=network.num_channels
    )
    grouped: Dict[Tuple[str, int], list] = {}
    for channel, load in zip(network.channels, crossings.tolist()):
        if channel.kind in (ChannelKind.INJECTION, ChannelKind.EJECTION):
            level = 0
        else:
            level = min(channel.source.level, channel.target.level)
        grouped.setdefault((channel.kind.value, level), []).append(load)
    return {key: (min(loads), max(loads)) for key, loads in grouped.items()}


class TestLoadBalance:
    @pytest.mark.parametrize("m,n", [(2, 2), (4, 2), (4, 3), (8, 2), (6, 2)])
    def test_loads_are_balanced_within_each_channel_class(self, m, n):
        summary = load_by_kind_and_level(m, n)
        for (kind, level), (low, high) in summary.items():
            assert low == high, f"unbalanced {kind} channels at level {level}"

    def test_injection_load_equals_destinations_per_source(self):
        tree = MPortNTree(4, 2)
        assert load_by_kind_and_level(4, 2)[("injection", 0)] == (
            tree.num_nodes - 1,
            tree.num_nodes - 1,
        )

    def test_every_pair_route_is_counted(self):
        # Total crossings equal the sum of route lengths over all ordered
        # pairs, which equals mean distance * number of pairs.
        tree = MPortNTree(4, 2)
        total_crossings = len(compile_tree_routes(4, 2).full.ids)
        expected = sum(d * count for d, count in distance_histogram(tree).items())
        assert total_crossings == expected

    def test_up_channel_loads_smaller_than_node_channel_loads(self):
        # Up channels only carry traffic leaving the subtree, so their load
        # is below the injection channels' load.
        summary = load_by_kind_and_level(4, 3)
        assert summary[("up", 0)][0] < summary[("injection", 0)][0]
        # And deeper levels carry less than lower levels.
        assert summary[("up", 1)][0] < summary[("up", 0)][0]
