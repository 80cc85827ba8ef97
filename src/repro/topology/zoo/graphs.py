"""The topology zoo: graph topologies beyond the paper's m-port n-tree.

Every member lowers to the exact representation the compilation pass of
:mod:`repro.topology.compile` produces for fat trees — a deterministic
enumeration of directed :class:`~repro.topology.fat_tree.Channel` objects
over dense host/switch indices — so the flat-array simulator hot path
and the frozen integer route tables apply unchanged.

A :class:`ZooTopology` is described by four things:

* dense host indices ``0 .. num_nodes - 1`` and the switch each host
  attaches to (:meth:`ZooTopology.host_switch`);
* dense switch indices ``0 .. num_switches - 1``;
* a deterministic list of undirected switch-switch links
  (:meth:`ZooTopology.links`);
* a per-switch *depth* (:meth:`ZooTopology.switch_depths`) inducing the
  up*/down* orientation: every link is oriented so its UP direction goes
  from the endpoint with the larger ``(depth, switch_id)`` key to the
  smaller one.  For trees the depth is simply the level below the root;
  for the torus it is BFS distance from switch 0, the classical
  BFS-rooted up*/down* orientation for irregular networks.

The orientation key is a total order, so the UP-channel digraph is acyclic
by construction, and because every switch at depth ``d > 0`` has a
neighbour at depth ``d - 1`` (its BFS/tree parent) every switch can reach
the root going up — which is exactly what makes up*/down* routing
deadlock-free *and* connected on every zoo member.

Channel enumeration order (the dense-id order the compiler freezes):
per host its (INJECTION, EJECTION) pair, then per link its (UP, DOWN)
pair, in :meth:`links` order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.topology.fat_tree import Channel, ChannelKind
from repro.utils.validation import ValidationError, check_positive_int


@dataclass(frozen=True, order=True)
class Host(object):
    """A processing node of a zoo topology, identified by its dense index."""

    index: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.index})"


@dataclass(frozen=True, order=True)
class GraphSwitch(object):
    """A switch of a zoo topology, identified by its dense index."""

    index: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphSwitch({self.index})"


class ZooTopology:
    """Base class: a switch graph with hosts, lowered to directed channels.

    Subclasses define the structure (:meth:`host_switch`, :meth:`links`,
    :meth:`switch_depths`); this base derives the :class:`Channel`
    enumeration satisfying :class:`repro.topology.compile.Topology`.
    """

    #: registry kind, set by each subclass (matches TopologySpec.kind)
    kind: str = ""

    name: str
    num_nodes: int
    num_switches: int

    def __init__(self) -> None:
        self._links: "Tuple[Tuple[int, int], ...] | None" = None
        self._depths: "Tuple[int, ...] | None" = None

    # ------------------------------------------------------------- structure
    def host_switch(self, host: int) -> int:
        """Dense index of the switch host ``host`` attaches to."""
        raise NotImplementedError

    def _build_links(self) -> List[Tuple[int, int]]:
        """The undirected switch-switch links, in deterministic order."""
        raise NotImplementedError

    def _build_depths(self) -> List[int]:
        """Per-switch depth inducing the up*/down* orientation."""
        raise NotImplementedError

    # --------------------------------------------------------------- derived
    def links(self) -> Tuple[Tuple[int, int], ...]:
        links = self._links
        if links is None:
            links = self._links = tuple(
                (int(a), int(b)) for a, b in self._build_links()
            )
            for a, b in links:
                if a == b:
                    raise ValidationError(f"self-link at switch {a}")
        return links

    def switch_depths(self) -> Tuple[int, ...]:
        depths = self._depths
        if depths is None:
            depths = self._depths = tuple(int(d) for d in self._build_depths())
            if len(depths) != self.num_switches:
                raise ValidationError(
                    f"{len(depths)} depths for {self.num_switches} switches"
                )  # pragma: no cover - structural invariant
        return depths

    @property
    def num_links(self) -> int:
        return len(self.links())

    @property
    def num_channels(self) -> int:
        """Two directed channels per host attachment and per link."""
        return 2 * self.num_nodes + 2 * self.num_links

    def oriented_links(self) -> Iterator[Tuple[int, int]]:
        """Links as ``(child, parent)`` pairs under the up*/down* orientation.

        The UP channel of a link goes from the endpoint with the larger
        ``(depth, id)`` key (the *child*, further from the root) to the
        smaller one (the *parent*).
        """
        depths = self.switch_depths()
        for a, b in self.links():
            if (depths[a], a) > (depths[b], b):
                yield a, b
            else:
                yield b, a

    def channels(self) -> Iterator[Channel]:
        """Directed channels in dense-id order (the compiled enumeration)."""
        for host in range(self.num_nodes):
            node = Host(host)
            switch = GraphSwitch(self.host_switch(host))
            yield Channel(node, switch, ChannelKind.INJECTION)
            yield Channel(switch, node, ChannelKind.EJECTION)
        for child, parent in self.oriented_links():
            lower = GraphSwitch(child)
            upper = GraphSwitch(parent)
            yield Channel(lower, upper, ChannelKind.UP)
            yield Channel(upper, lower, ChannelKind.DOWN)

    def switches(self) -> Iterator[GraphSwitch]:
        for index in range(self.num_switches):
            yield GraphSwitch(index)

    def nodes(self) -> Iterator[Host]:
        for index in range(self.num_nodes):
            yield Host(index)

    def validate(self) -> None:
        """Structural sanity checks shared by every family (test hook).

        Every switch below the top depth must have an up channel, so any
        switch can ascend to *some* root (a depth-0 switch; fat trees have
        several).  Pairwise route existence itself is pinned by the
        routing test suite, which walks every pair through the router.
        """
        depths = self.switch_depths()
        seen_up: Dict[int, bool] = {s: False for s in range(self.num_switches)}
        for child, parent in self.oriented_links():
            if (depths[child], child) <= (depths[parent], parent):
                raise ValidationError("orientation does not descend the key")
            seen_up[child] = True
        for switch in range(self.num_switches):
            if depths[switch] > 0 and not seen_up[switch]:
                raise ValidationError(f"switch {switch} has no up channel")
        for host in range(self.num_nodes):
            if not 0 <= self.host_switch(host) < self.num_switches:
                raise ValidationError(f"host {host} attaches out of range")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name}, hosts={self.num_nodes}, "
            f"switches={self.num_switches}, links={self.num_links})"
        )


class KAryFatTree(ZooTopology):
    """The k-ary pod fat-tree of Al-Fares et al. (k even).

    ``k`` pods, each with ``k/2`` edge and ``k/2`` aggregation switches in
    complete bipartite connection; ``(k/2)^2`` core switches, core
    ``j * k/2 + c`` connecting to aggregation switch ``j`` of every pod;
    ``k/2`` hosts per edge switch — ``k^3 / 4`` hosts in total.

    Switch ids: cores first, then aggregations pod-major, then edges
    pod-major.  Depths: core 0, aggregation 1, edge 2 — the canonical
    fat-tree up*/down* orientation.
    """

    kind = "fattree"

    def __init__(self, k: int) -> None:
        super().__init__()
        check_positive_int(k, "k")
        if k % 2 != 0 or k < 2:
            raise ValidationError(f"k must be even and >= 2, got {k}")
        self.k = int(k)
        half = self.k // 2
        self.half = half
        self.num_cores = half * half
        self.agg_base = self.num_cores
        self.edge_base = self.num_cores + self.k * half
        self.num_switches = self.edge_base + self.k * half
        self.num_nodes = self.k * half * half
        self.name = f"fattree(k={self.k})"

    def host_switch(self, host: int) -> int:
        return self.edge_base + host // self.half

    def _build_links(self) -> List[Tuple[int, int]]:
        half = self.half
        links: List[Tuple[int, int]] = []
        for pod in range(self.k):
            for agg in range(half):
                agg_id = self.agg_base + pod * half + agg
                for core in range(half):
                    links.append((agg_id, agg * half + core))
            for edge in range(half):
                edge_id = self.edge_base + pod * half + edge
                for agg in range(half):
                    links.append((edge_id, self.agg_base + pod * half + agg))
        return links

    def _build_depths(self) -> List[int]:
        depths = [0] * self.num_cores
        depths += [1] * (self.k * self.half)
        depths += [2] * (self.k * self.half)
        return depths


class FanoutTree(ZooTopology):
    """A complete switch tree of ``depth`` levels and constant ``fanout``.

    Level ``l`` holds ``fanout**l`` switches (one root at level 0); each
    leaf switch at level ``depth - 1`` carries ``fanout`` hosts, giving
    ``fanout**depth`` hosts — the mininet ``TreeTopo`` shape.  Switch ids
    are level-major (breadth-first), depth equals the level.
    """

    kind = "tree"

    def __init__(self, depth: int, fanout: int) -> None:
        super().__init__()
        check_positive_int(depth, "depth")
        check_positive_int(fanout, "fanout")
        if fanout < 2:
            raise ValidationError(f"fanout must be >= 2, got {fanout}")
        self.depth = int(depth)
        self.fanout = int(fanout)
        self._level_offsets: List[int] = []
        offset = 0
        for level in range(self.depth):
            self._level_offsets.append(offset)
            offset += self.fanout**level
        self.num_switches = offset
        self.num_nodes = self.fanout**self.depth
        self.name = f"tree(depth={self.depth},fanout={self.fanout})"

    def host_switch(self, host: int) -> int:
        return self._level_offsets[self.depth - 1] + host // self.fanout

    def _build_links(self) -> List[Tuple[int, int]]:
        links: List[Tuple[int, int]] = []
        for level in range(1, self.depth):
            base = self._level_offsets[level]
            parent_base = self._level_offsets[level - 1]
            for index in range(self.fanout**level):
                links.append((base + index, parent_base + index // self.fanout))
        return links

    def _build_depths(self) -> List[int]:
        depths: List[int] = []
        for level in range(self.depth):
            depths.extend([level] * (self.fanout**level))
        return depths


class Torus2D(ZooTopology):
    """A 2-D torus of ``rows x cols`` switches with one host per switch.

    Switch ``(i, j)`` has id ``i * cols + j`` and links to its east and
    south neighbours with wraparound (the mininet ``TorusTopo`` wiring);
    both dimensions must be at least 3 so no wrap link duplicates a grid
    link.  The up*/down* orientation is BFS-rooted at switch 0.
    """

    kind = "torus"

    def __init__(self, rows: int, cols: int) -> None:
        super().__init__()
        check_positive_int(rows, "rows")
        check_positive_int(cols, "cols")
        if rows < 3 or cols < 3:
            raise ValidationError(
                f"torus dimensions must be >= 3, got {rows}x{cols}"
            )
        self.rows = int(rows)
        self.cols = int(cols)
        self.num_switches = self.rows * self.cols
        self.num_nodes = self.num_switches
        self.name = f"torus({self.rows}x{self.cols})"

    def host_switch(self, host: int) -> int:
        return host

    def _build_links(self) -> List[Tuple[int, int]]:
        rows, cols = self.rows, self.cols
        links: List[Tuple[int, int]] = []
        for i in range(rows):
            for j in range(cols):
                here = i * cols + j
                links.append((here, i * cols + (j + 1) % cols))
                links.append((here, ((i + 1) % rows) * cols + j))
        return links

    def _build_depths(self) -> List[int]:
        adjacency: List[List[int]] = [[] for _ in range(self.num_switches)]
        for a, b in self.links():
            adjacency[a].append(b)
            adjacency[b].append(a)
        depths = [-1] * self.num_switches
        depths[0] = 0
        queue = deque([0])
        while queue:
            switch = queue.popleft()
            for neighbour in sorted(adjacency[switch]):
                if depths[neighbour] < 0:
                    depths[neighbour] = depths[switch] + 1
                    queue.append(neighbour)
        if min(depths) < 0:
            raise ValidationError("torus graph is not connected")  # pragma: no cover
        return depths
