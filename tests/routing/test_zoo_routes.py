"""Generalized up*/down* routing over the topology zoo.

Two layers of guarantees:

* **Property tests** (hypothesis): on randomized fanout trees and small
  tori, every route the :class:`GraphUpDownRouter` produces is *valid*
  (contiguous, starts with injection at the source, ends with ejection at
  the destination, every hop a channel of the topology) and *legal
  up*/down** (all UP hops strictly before all DOWN hops) and *cycle-free*
  (no switch visited twice).
* **Table equivalence**: the frozen integer tables of
  :class:`CompiledGraphRoutes` match the object-path router route for
  route on every zoo member, in both eager and lazy compilation modes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import compile as routing_compile
from repro.routing.compile import (
    CompiledGraphRoutes,
    compile_graph_routes,
    compile_system_routes,
)
from repro.routing.updown import GraphUpDownRouter
from repro.topology.fat_tree import ChannelKind
from repro.topology.zoo import (
    FanoutTree,
    GraphSwitch,
    Host,
    KAryFatTree,
    Torus2D,
    TopologySpec,
    build_topology,
    compile_graph,
)
from repro.topology.zoo import spec as zoo_spec
from repro.utils.cache import CACHE_LIMIT
from repro.utils.validation import ValidationError

ZOO_SPECS = [
    TopologySpec("fattree", {"k": 4}),
    TopologySpec("tree", {"depth": 2, "fanout": 4}),
    TopologySpec("tree", {"depth": 3, "fanout": 2}),
    TopologySpec("torus", {"rows": 3, "cols": 3}),
    TopologySpec("torus", {"rows": 4, "cols": 4}),
]


def _assert_valid_updown_route(topology, source, dest, route):
    channels = list(route)
    assert channels[0].kind == ChannelKind.INJECTION
    assert channels[0].source == Host(source)
    assert channels[0].target == GraphSwitch(topology.host_switch(source))
    assert channels[-1].kind == ChannelKind.EJECTION
    assert channels[-1].target == Host(dest)
    assert channels[-1].source == GraphSwitch(topology.host_switch(dest))
    # Contiguity: each hop departs where the previous one arrived.
    for previous, current in zip(channels, channels[1:]):
        assert previous.target == current.source
    # Legality: up* then down*, never up again after the first down.
    kinds = [channel.kind for channel in channels[1:-1]]
    assert all(kind in (ChannelKind.UP, ChannelKind.DOWN) for kind in kinds)
    if ChannelKind.DOWN in kinds:
        first_down = kinds.index(ChannelKind.DOWN)
        assert ChannelKind.UP not in kinds[first_down:]
    # Cycle-freedom: no switch is visited twice.
    visited = [channels[0].target] + [channel.target for channel in channels[1:-1]]
    assert len(visited) == len(set(visited))
    # Every channel belongs to the topology's compiled enumeration.
    ids = compile_graph(
        TopologySpec(topology.kind, _params_of(topology))
    ).channel_ids
    for channel in channels:
        assert channel in ids


def _params_of(topology):
    if isinstance(topology, KAryFatTree):
        return {"k": topology.k}
    if isinstance(topology, FanoutTree):
        return {"depth": topology.depth, "fanout": topology.fanout}
    if isinstance(topology, Torus2D):
        return {"rows": topology.rows, "cols": topology.cols}
    raise AssertionError(f"unknown family {type(topology).__name__}")


# --------------------------------------------------------------------------- #
# Exhaustive validity on every zoo member
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("spec", ZOO_SPECS, ids=lambda spec: spec.token)
def test_every_pair_routes_validly(spec):
    topology = build_topology(spec)
    router = GraphUpDownRouter(topology)
    for source in range(topology.num_nodes):
        for dest in range(topology.num_nodes):
            if source == dest:
                continue
            _assert_valid_updown_route(
                topology, source, dest, router.route(source, dest)
            )


def test_same_source_destination_rejected():
    router = GraphUpDownRouter(Torus2D(3, 3))
    with pytest.raises(ValidationError):
        router.route(2, 2)


def test_router_is_deterministic():
    topology = Torus2D(4, 4)
    a = GraphUpDownRouter(topology)
    b = GraphUpDownRouter(Torus2D(4, 4))
    for source, dest in ((0, 15), (7, 8), (3, 12)):
        assert list(a.route(source, dest)) == list(b.route(source, dest))


# --------------------------------------------------------------------------- #
# Property tests on randomized instances
# --------------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=3),
    fanout=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_random_tree_routes_are_valid_and_cycle_free(depth, fanout, data):
    topology = FanoutTree(depth=depth, fanout=fanout)
    topology.validate()
    pairs = st.tuples(
        st.integers(0, topology.num_nodes - 1),
        st.integers(0, topology.num_nodes - 1),
    ).filter(lambda pair: pair[0] != pair[1])
    source, dest = data.draw(pairs)
    router = GraphUpDownRouter(topology)
    _assert_valid_updown_route(topology, source, dest, router.route(source, dest))


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=3, max_value=5),
    cols=st.integers(min_value=3, max_value=5),
    data=st.data(),
)
def test_random_torus_routes_are_valid_and_cycle_free(rows, cols, data):
    topology = Torus2D(rows, cols)
    topology.validate()
    pairs = st.tuples(
        st.integers(0, topology.num_nodes - 1),
        st.integers(0, topology.num_nodes - 1),
    ).filter(lambda pair: pair[0] != pair[1])
    source, dest = data.draw(pairs)
    router = GraphUpDownRouter(topology)
    _assert_valid_updown_route(topology, source, dest, router.route(source, dest))


# --------------------------------------------------------------------------- #
# Compiled integer tables == object-path router
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("spec", ZOO_SPECS, ids=lambda spec: spec.token)
def test_compiled_tables_match_router_route_for_route(spec):
    topology = build_topology(spec)
    graph = compile_graph(spec)
    router = GraphUpDownRouter(topology)
    tables = compile_graph_routes(spec)
    tables.ensure_complete()
    table, has_switch = tables.table()
    num_nodes = topology.num_nodes
    for source in range(num_nodes):
        for dest in range(num_nodes):
            pair = source * num_nodes + dest
            if source == dest:
                assert table.route(pair) == ()
                continue
            route = router.route(source, dest)
            expected = tuple(graph.channel_ids[channel] for channel in route)
            assert table.route(pair) == expected
            assert tables.route(source, dest) == (expected, bool(has_switch[pair]))
            assert has_switch[pair] == any(
                not channel.kind.is_node_channel for channel in route
            )


@pytest.mark.parametrize("spec", ZOO_SPECS[:2], ids=lambda spec: spec.token)
def test_lazy_and_eager_tables_agree(spec):
    """Rows filled one at a time, in any order, lay out like a complete fill."""
    eager = CompiledGraphRoutes(spec)
    eager.ensure_complete()
    lazy = CompiledGraphRoutes(spec)
    assert lazy.compiled_rows == set()
    rows = list(range(lazy.num_nodes))
    lazy.ensure_rows(rows[1::2])
    assert lazy.compiled_rows == set(rows[1::2])
    partial, _ = lazy.table()
    for source in rows[::2]:
        # Unfilled rows are empty.
        start = source * lazy.num_nodes
        assert partial.offsets[start] == partial.offsets[start + lazy.num_nodes]
    for source in reversed(rows[::2]):
        lazy.ensure_rows((source,))
    for lazy_array, eager_array in zip(
        (*lazy.table()[0], lazy.table()[1]), (*eager.table()[0], eager.table()[1])
    ):
        assert lazy_array.tolist() == eager_array.tolist()


def test_zoo_caches_stay_bounded():
    """A long-lived worker routing many distinct zoo topologies (``repro
    serve`` takes inline ones from any client) keeps at most CACHE_LIMIT
    topologies and route tables, like every other per-spec cache."""
    for fanout in range(2, CACHE_LIMIT + 8):
        spec = TopologySpec("tree", {"depth": 1, "fanout": fanout})
        assert compile_system_routes(spec).intra_route(0, 0, 1) == ((0, 3), False)
        assert len(routing_compile._GRAPH_ROUTES) <= CACHE_LIMIT
        assert len(zoo_spec._SHARED_TOPOLOGIES) <= CACHE_LIMIT
