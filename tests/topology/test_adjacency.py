"""Structural cross-checks of the topologies on plain adjacency.

A tree is read as an undirected graph through its own enumeration (each
node's leaf switch, each switch's up switches); a multi-cluster system as
the union of its trees, joined the way the message-flow model of Fig. 2
joins them: a host's ICN1 and ECN1 ends are one machine, and each
concentrator (an ICN2 processing node) links to every root switch of its
cluster's ECN1.  Breadth-first search then checks connectivity and shortest
paths against the closed forms, and the compiled channel endpoints against
the links.
"""

from collections import defaultdict, deque

import pytest

from repro.topology import MPortNTree, MultiClusterSpec, MultiClusterSystem, compile_tree
from repro.topology.fat_tree import FatTreeNode, FatTreeSwitch

SHAPES = [(2, 1), (2, 2), (4, 1), (4, 2), (4, 3), (8, 2)]

SYSTEMS = [
    MultiClusterSpec(m=4, cluster_heights=(1, 2, 1, 1), name="four"),
    MultiClusterSpec(m=4, cluster_heights=(1, 2, 1, 1, 3, 1, 2, 1), name="eight"),
]


def link(adjacency, a, b):
    adjacency[a].add(b)
    adjacency[b].add(a)


def add_tree(adjacency, tree, label):
    """Add ``tree``'s links; vertices are ``(label, node-or-switch)``."""
    for node in tree.nodes():
        link(adjacency, (label, node), (label, tree.leaf_switch_of(node)))
    for level in range(tree.n - 1):
        for switch in tree.switches_at_level(level):
            for upper in tree.up_switches(switch):
                link(adjacency, (label, switch), (label, upper))


def tree_adjacency(tree):
    adjacency = defaultdict(set)
    add_tree(adjacency, tree, tree.name)
    return adjacency


def system_adjacency(system, include_icn1=True):
    """Every ECN1 plus the ICN2 and the concentrator links; with
    ``include_icn1`` also every ICN1, tied to the ECN1 at each host."""
    adjacency = defaultdict(set)
    for cluster in system.clusters:
        add_tree(adjacency, cluster.ecn1, ("ECN1", cluster.index))
        if include_icn1:
            add_tree(adjacency, cluster.icn1, ("ICN1", cluster.index))
            for node in cluster.nodes():
                link(adjacency, (("ICN1", cluster.index), node), (("ECN1", cluster.index), node))
    add_tree(adjacency, system.icn2, "ICN2")
    for concentrator in system.concentrators:
        ecn1 = system.cluster(concentrator.cluster_index).ecn1
        for root in ecn1.switches_at_level(ecn1.root_level):
            link(
                adjacency,
                ("ICN2", concentrator.icn2_node),
                (("ECN1", concentrator.cluster_index), root),
            )
    return adjacency


def bfs_distances(adjacency, start):
    distances = {start: 0}
    frontier = deque([start])
    while frontier:
        vertex = frontier.popleft()
        for neighbour in adjacency[vertex]:
            if neighbour not in distances:
                distances[neighbour] = distances[vertex] + 1
                frontier.append(neighbour)
    return distances


def is_connected(adjacency):
    return len(bfs_distances(adjacency, next(iter(adjacency)))) == len(adjacency)


class TestTreeAdjacency:
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_counts_and_degrees_match_the_closed_forms(self, m, n):
        tree = MPortNTree(m, n)
        adjacency = tree_adjacency(tree)
        nodes = [vertex for vertex in adjacency if isinstance(vertex[1], FatTreeNode)]
        switches = [vertex for vertex in adjacency if isinstance(vertex[1], FatTreeSwitch)]
        assert len(nodes) == tree.num_nodes
        assert len(switches) == tree.num_switches
        assert {vertex[1].level for vertex in switches} == set(range(n))
        assert sum(len(neighbours) for neighbours in adjacency.values()) == 2 * tree.num_links
        # A node has one link; every switch uses all m of its ports.
        assert all(len(adjacency[vertex]) == 1 for vertex in nodes)
        assert all(len(adjacency[vertex]) == m for vertex in switches)

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_tree_is_connected(self, m, n):
        assert is_connected(tree_adjacency(MPortNTree(m, n)))

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_shortest_paths_match_nca_distance(self, m, n):
        tree = MPortNTree(m, n)
        adjacency = tree_adjacency(tree)
        for source in tree.nodes():
            distances = bfs_distances(adjacency, (tree.name, source))
            for dest in tree.nodes():
                assert distances[(tree.name, dest)] == tree.distance(source, dest)

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_compiled_channels_cross_every_link_both_ways(self, m, n):
        tree = MPortNTree(m, n)
        compiled = compile_tree(m, n)
        directed_links = {
            (vertex, neighbour)
            for vertex, neighbours in tree_adjacency(tree).items()
            for neighbour in neighbours
        }
        channels = [
            ((tree.name, channel.source), (tree.name, channel.target))
            for channel in compiled.channels
        ]
        assert len(set(channels)) == len(channels) == tree.num_channels
        assert set(channels) == directed_links


class TestSystemAdjacency:
    @pytest.mark.parametrize("spec", SYSTEMS, ids=lambda spec: spec.name)
    def test_system_is_connected(self, spec):
        assert is_connected(system_adjacency(MultiClusterSystem(spec)))

    @pytest.mark.parametrize("spec", SYSTEMS, ids=lambda spec: spec.name)
    def test_external_networks_alone_connect_every_node(self, spec):
        assert is_connected(system_adjacency(MultiClusterSystem(spec), include_icn1=False))

    @pytest.mark.parametrize("spec", SYSTEMS, ids=lambda spec: spec.name)
    def test_inter_cluster_distance_is_ascent_icn2_and_descent(self, spec):
        system = MultiClusterSystem(spec)
        adjacency = system_adjacency(system, include_icn1=False)
        for source_cluster in system.clusters:
            source = (("ECN1", source_cluster.index), FatTreeNode(0))
            distances = bfs_distances(adjacency, source)
            for dest_cluster in system.clusters:
                if dest_cluster is source_cluster:
                    continue
                # Up to an ECN1 root, onto the concentrator, across the
                # ICN2, off the dispatcher and down the other ECN1.
                expected = (
                    source_cluster.height
                    + 1
                    + system.icn2.distance(source_cluster.index, dest_cluster.index)
                    + 1
                    + dest_cluster.height
                )
                for node in dest_cluster.nodes():
                    assert distances[(("ECN1", dest_cluster.index), node)] == expected
