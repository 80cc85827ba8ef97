"""Precompiled integer route tables for the wormhole hot path.

:class:`~repro.routing.updown.UpDownRouter` is the routing specification:
it produces explicit, validated :class:`Channel` sequences, and the
analytical model's stage accounting is checked against it.  But rebuilding
that object chain for every simulated message is the single largest cost of
a simulation run.  On an m-port n-tree the route is closed form (Eq. 3/4,
:mod:`repro.routing.nca`), so :func:`route_legs` computes it with array
arithmetic over every source row at once, and this module freezes the
result into flat CSR route tables (:class:`RouteTable`: int32 offsets plus
int32 channel ids, pair ``s * N + d`` crossing
``ids[offsets[pair]:offsets[pair + 1]]``):

* :class:`CompiledTreeRoutes` — for one ``(m, n)`` shape: the full
  node-to-node routes with their has-switch flags, plus the ascending and
  descending ECN1 legs, in shape-local channel ids (from
  :func:`repro.topology.compile.compile_tree`).  Shape tables are built
  eagerly and cached at module level: every same-shape cluster of every
  spec shares them, across sweep points.
* :class:`CompiledGraphRoutes` — the full routes of one zoo topology in
  the same layout, filled one source row at a time by breadth-first search.
* :class:`CompiledSystemRoutes` / :class:`CompiledZooRoutes` — one system:
  which shape table each cluster reads and the channel offset of each of
  its networks in the global id space of
  :func:`repro.topology.compile.compile_system`.  :meth:`~CompiledSystemRoutes.flat`
  lays every distinct table out as one CSR (:class:`FlatRoutes`), which is
  what the native event core reads; the kernels add each cluster's channel
  offset as they copy a route, so no table is ever rebased.

Every compiled route round-trips: ``decompile(...)`` maps a route's ids back
to the exact ``Channel`` sequence, and the test suite asserts that the
tables equal a router walk over every pair of the figures' shapes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.topology.compile import (
    CompiledSystem,
    compile_system,
    compile_tree,
    node_channel_ids,
    up_channel_id,
)
from repro.topology.fat_tree import Channel, shared_tree
from repro.topology.multicluster import MultiClusterSpec
from repro.utils.validation import ValidationError

__all__ = [
    "CompiledGraphRoutes",
    "CompiledTreeRoutes",
    "CompiledSystemRoutes",
    "CompiledZooRoutes",
    "FlatRoutes",
    "RouteTable",
    "compile_graph_routes",
    "compile_tree_routes",
    "compile_system_routes",
    "decompile",
    "clear_route_caches",
    "route_legs",
]

IdTuple = Tuple[int, ...]

#: Largest id count an int32 offset array can address.
_INT32_LIMIT = 2**31 - 1


def route_legs(
    m: int, n: int, sources: Iterable[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form route legs from each of ``sources`` to every node.

    For the ``(m, n)`` shape with ``N`` nodes and ``S`` sources, returns
    padded int64 arrays, pairs in order ``i * N + other``:

    * ``lengths`` ``(S*N,)``: the NCA distance ``j``, 0 on the diagonal;
    * ``ascending`` ``(S*N, n)``: injection, then the up channel leaving
      level ``t - 1`` through ``other``'s digit ``n - t``
      (:func:`repro.routing.nca.ascent_digits`) — a pair's leg is the
      first ``j`` entries;
    * ``descending`` ``(N, n)``, by ``other``: ejection, then the down
      channel into level ``t - 1``.  The route turns at the level ``j - 1``
      switch of ``other``'s own ascent, so a pair's leg is the first ``j``
      entries, reversed.
    """
    k = m // 2
    num_nodes = 2 * k**n
    source = np.asarray(list(sources), dtype=np.int64).reshape(-1, 1)
    other = np.arange(num_nodes, dtype=np.int64)
    lengths = (source != other).astype(np.int64)
    ascending = np.empty((len(source), num_nodes, n), dtype=np.int64)
    descending = np.empty((num_nodes, n), dtype=np.int64)
    ascending[:, :, 0] = node_channel_ids(source)[0]
    descending[:, 0] = node_channel_ids(other)[1]
    for t in range(1, n):
        # The level t-1 switch on the way up keeps the top n-t digits of the
        # node it started from and holds other's digits n-t+1.. below them;
        # it leaves through up digit n-t of other.
        low = other % k ** (t - 1)
        digit = other // k ** (t - 1) % k
        source_top = source // k**t
        other_top = other // k**t
        lengths += source_top != other_top
        ascending[:, :, t] = up_channel_id(
            num_nodes, k, t - 1, source_top * k ** (t - 1) + low, digit
        )
        descending[:, t] = (
            up_channel_id(num_nodes, k, t - 1, other_top * k ** (t - 1) + low, digit) + 1
        )
    return lengths.ravel(), ascending.reshape(-1, n), descending


class RouteTable(NamedTuple):
    """Routes of one table in CSR form.

    Pair ``p`` crosses the channel ids ``ids[offsets[p]:offsets[p + 1]]``
    (both int32); the diagonal's routes are empty.
    """

    offsets: np.ndarray
    ids: np.ndarray

    @property
    def num_pairs(self) -> int:
        return len(self.offsets) - 1

    def route(self, pair: int, offset: int = 0) -> IdTuple:
        """Pair ``pair``'s channel ids, shifted by ``offset``."""
        start, end = self.offsets[pair : pair + 2].tolist()
        return tuple((self.ids[start:end] + offset).tolist())


def _route_table(lengths: np.ndarray, entries: np.ndarray, mask: np.ndarray) -> RouteTable:
    """CSR of padded per-pair routes: row ``p`` of ``entries`` where ``mask``."""
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    if offsets[-1] > _INT32_LIMIT:
        raise ValidationError(f"{offsets[-1]} route ids do not fit int32 offsets")
    return RouteTable(offsets.astype(np.int32), entries[mask].astype(np.int32))


class CompiledTreeRoutes:
    """All deterministic routes of one tree shape as CSR tables.

    Tables are indexed by pair ``source * num_nodes + other``:

    * ``full`` — the 2j-link route from node ``s`` to node ``d``: the
      ascending leg followed by the descending leg;
    * ``has_switch[...]`` — True when that route crosses at least one
      switch-switch channel (it always crosses node channels), which is all
      the simulator needs to find the slowest hop of an intra-cluster
      journey;
    * ``ascending`` — the ECN1 ascending leg from ``s`` towards exit peer
      ``p`` (injection + up channels);
    * ``descending`` — the ECN1 descending leg entered at the NCA of entry
      peer ``p`` and ``d`` (down + ejection channels).

    One :func:`route_legs` call over every source row builds all three.
    """

    __slots__ = ("m", "n", "num_nodes", "full", "has_switch", "ascending", "descending")

    def __init__(self, m: int, n: int) -> None:
        self.m = int(m)
        self.n = int(n)
        num_nodes = shared_tree(m, n).num_nodes
        self.num_nodes = num_nodes
        lengths, up, down = route_legs(self.m, self.n, range(num_nodes))
        column = np.arange(self.n)
        up_mask = column < lengths[:, None]
        # Row ``other`` of ``down``, reversed, ends with every descending leg
        # that turns on other's ascent: pair (s, other) takes its last j.
        down = down[:, ::-1][np.tile(np.arange(num_nodes), num_nodes)]
        down_mask = column >= self.n - lengths[:, None]
        self.full = _route_table(
            2 * lengths, np.hstack((up, down)), np.hstack((up_mask, down_mask))
        )
        self.has_switch = lengths > 1
        self.ascending = _route_table(lengths, up, up_mask)
        self.descending = _route_table(lengths, down, down_mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledTreeRoutes(m={self.m}, n={self.n}, nodes={self.num_nodes})"


_TREE_ROUTES: Dict[Tuple[int, int], CompiledTreeRoutes] = {}


def compile_tree_routes(m: int, n: int) -> CompiledTreeRoutes:
    """The (cached) route tables of the ``(m, n)`` tree shape."""
    key = (int(m), int(n))
    routes = _TREE_ROUTES.get(key)
    if routes is None:
        routes = _TREE_ROUTES[key] = CompiledTreeRoutes(m, n)
    return routes


class CompiledGraphRoutes:
    """All deterministic up*/down* routes of one zoo topology, row by row.

    The zoo counterpart of :class:`CompiledTreeRoutes`, holding only the
    full routes a one-cluster system needs.  Rows are filled on demand by
    the memoised per-source BFS of
    :class:`~repro.routing.updown.GraphUpDownRouter` — one breadth-first
    search plus one walk per destination — because a large graph's table
    is expensive to complete (a 16x16 torus takes seconds) and a run only
    reads the rows of the sources that send.  :meth:`table` presents the
    filled rows in :class:`RouteTable` layout, unfilled rows empty.
    """

    __slots__ = ("token", "num_nodes", "_rows", "_table", "_router", "_ids")

    def __init__(self, spec) -> None:
        # Imported lazily: the zoo package is optional on the import path of
        # fat-tree-only consumers.
        from repro.routing.updown import GraphUpDownRouter
        from repro.topology.zoo.compile import compile_graph
        from repro.topology.zoo.spec import build_topology

        topology = build_topology(spec)
        self.token = spec.token
        self.num_nodes = topology.num_nodes
        self._router = GraphUpDownRouter(topology)
        self._ids = compile_graph(spec).channel_ids
        #: source -> (row offsets, ids, has-switch flags)
        self._rows: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._table: Optional[Tuple[RouteTable, np.ndarray]] = None

    @property
    def compiled_rows(self) -> set:
        return set(self._rows)

    def _fill_row(self, source: int) -> None:
        ids = self._ids
        lengths = np.zeros(self.num_nodes, dtype=np.int64)
        flags = np.zeros(self.num_nodes, dtype=bool)
        row: List[int] = []
        for other in range(self.num_nodes):
            if other == source:
                continue
            channels = self._router.route(source, other).channels
            lengths[other] = len(channels)
            flags[other] = any(not channel.kind.is_node_channel for channel in channels)
            row.extend(ids[channel] for channel in channels)
        offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int32)
        self._rows[source] = (offsets, np.asarray(row, dtype=np.int32), flags)
        self._table = None

    def ensure_rows(self, sources: Iterable[int]) -> None:
        """Fill every row of ``sources`` not filled yet."""
        for source in sorted(set(int(source) for source in sources) - self._rows.keys()):
            self._fill_row(source)

    def ensure_complete(self) -> None:
        """Fill every remaining row (setup-time warm-up hook)."""
        self.ensure_rows(range(self.num_nodes))

    def route(self, source: int, other: int) -> Tuple[IdTuple, bool]:
        """The route from ``source`` to ``other`` and its has-switch flag."""
        if source not in self._rows:
            self._fill_row(source)
        offsets, ids, flags = self._rows[source]
        start, end = offsets[other : other + 2].tolist()
        return tuple(ids[start:end].tolist()), bool(flags[other])

    def table(self) -> Tuple[RouteTable, np.ndarray]:
        """The filled rows over every pair: ``(routes, has-switch flags)``."""
        if self._table is None:
            num_nodes = self.num_nodes
            lengths = np.zeros((num_nodes, num_nodes), dtype=np.int64)
            flags = np.zeros((num_nodes, num_nodes), dtype=bool)
            pieces = []
            for source in sorted(self._rows):
                offsets, ids, row_flags = self._rows[source]
                lengths[source] = np.diff(offsets)
                flags[source] = row_flags
                pieces.append(ids)
            ids = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int32)
            offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int32)
            self._table = (RouteTable(offsets, ids), flags.ravel())
        return self._table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledGraphRoutes({self.token}, nodes={self.num_nodes}, "
            f"rows={len(self._rows)})"
        )


_GRAPH_ROUTES: Dict[Tuple, CompiledGraphRoutes] = {}


def compile_graph_routes(spec) -> CompiledGraphRoutes:
    """The (cached) route tables of zoo topology ``spec``, keyed by identity."""
    key = spec.identity
    routes = _GRAPH_ROUTES.get(key)
    if routes is None:
        routes = _GRAPH_ROUTES[key] = CompiledGraphRoutes(spec)
    return routes


class FlatRoutes(NamedTuple):
    """Every route table one system reads, laid out as one CSR.

    Route ``q`` crosses the shape-local ids ``ids[offsets[q]:offsets[q + 1]]``
    and ``has_switch[q]`` flags full routes that cross a switch-switch
    channel.  Cluster ``c``'s full routes start at route ``intra[c]``
    (pair ``s * N_c + d``), its ECN1 legs at ``ascend[c]`` and
    ``descend[c]``, and the ICN2 routes at ``icn2`` (pair ``sc * C + dc``).
    A kernel adds the owning network's channel offset to every id it
    copies: ``icn1_shift[c]``, ``ecn1_shift[c]`` or ``icn2_shift``.  Each
    distinct shape table appears once, shared by its same-shape clusters.
    """

    offsets: np.ndarray  # int32 (routes + 1,)
    ids: np.ndarray  # int32
    has_switch: np.ndarray  # uint8 (routes,)
    intra: np.ndarray  # int64 (C,)
    ascend: np.ndarray  # int64 (C,)
    descend: np.ndarray  # int64 (C,)
    icn1_shift: np.ndarray  # int64 (C,)
    ecn1_shift: np.ndarray  # int64 (C,)
    icn2: int
    icn2_shift: int


def _concatenate(tables: List[Tuple[RouteTable, Optional[np.ndarray]]]) -> tuple:
    """One CSR over ``tables`` plus the first route of each."""
    id_starts = np.cumsum([0] + [len(table.ids) for table, _ in tables])
    if id_starts[-1] > _INT32_LIMIT:
        raise ValidationError(f"{id_starts[-1]} route ids do not fit int32 offsets")
    offsets = np.concatenate(
        [table.offsets[:-1] + start for (table, _), start in zip(tables, id_starts)]
        + [id_starts[-1:]]
    ).astype(np.int32)
    ids = np.concatenate([table.ids for table, _ in tables]).astype(np.int32, copy=False)
    has_switch = np.concatenate(
        [
            np.zeros(table.num_pairs, dtype=np.uint8) if flags is None else flags.astype(np.uint8)
            for table, flags in tables
        ]
    )
    firsts = np.cumsum([0] + [table.num_pairs for table, _ in tables])[:-1].tolist()
    return offsets, ids, has_switch, firsts


class CompiledSystemRoutes:
    """The route tables of every journey of one multi-cluster spec.

    Attributes (``N_c`` is the node count of cluster ``c``, node indices are
    local):

    * ``shapes[c]`` — cluster ``c``'s :class:`CompiledTreeRoutes`, read for
      its ICN1 routes and both ECN1 legs;
    * ``icn2_shape`` — the ICN2 tree's tables (pair ``sc * C + dc``);
    * ``icn1_offsets`` / ``ecn1_offsets`` / ``icn2_offset`` — each
      network's first global channel id;
    * ``concentrator[c]`` / ``dispatcher[c]`` — relay pseudo-channel slots.

    :meth:`intra_route` and :meth:`external_route` assemble one journey in
    global ids (the generator kernel's reads); :meth:`flat` is the same
    data for the native kernel.
    """

    __slots__ = (
        "core",
        "shapes",
        "icn2_shape",
        "icn1_offsets",
        "ecn1_offsets",
        "icn2_offset",
        "concentrator",
        "dispatcher",
        "_flat",
    )

    def __init__(self, core: CompiledSystem) -> None:
        self.core = core
        spec = core.spec
        self.shapes = tuple(compile_tree_routes(spec.m, height) for height in spec.cluster_heights)
        self.icn2_shape = compile_tree_routes(spec.m, spec.icn2_height)
        self.icn1_offsets = core.icn1_offsets
        self.ecn1_offsets = core.ecn1_offsets
        self.icn2_offset = core.icn2_offset
        self.concentrator = tuple(
            core.concentrator_slot(index) for index in range(spec.num_clusters)
        )
        self.dispatcher = tuple(
            core.dispatcher_slot(index) for index in range(spec.num_clusters)
        )
        self._flat: Optional[FlatRoutes] = None

    def intra_route(self, cluster: int, source: int, dest: int) -> Tuple[IdTuple, bool]:
        """The ICN1 journey of cluster ``cluster`` and its has-switch flag."""
        shape = self.shapes[cluster]
        pair = source * shape.num_nodes + dest
        return (
            shape.full.route(pair, self.icn1_offsets[cluster]),
            bool(shape.has_switch[pair]),
        )

    def external_route(
        self,
        source_cluster: int,
        source: int,
        exit_peer: int,
        dest_cluster: int,
        entry_peer: int,
        dest: int,
    ) -> IdTuple:
        """The ECN1 + relay + ICN2 + relay + ECN1 journey between clusters."""
        source_shape = self.shapes[source_cluster]
        dest_shape = self.shapes[dest_cluster]
        num_clusters = len(self.shapes)
        return (
            source_shape.ascending.route(
                source * source_shape.num_nodes + exit_peer,
                self.ecn1_offsets[source_cluster],
            )
            + (self.concentrator[source_cluster],)
            + self.icn2_shape.full.route(
                source_cluster * num_clusters + dest_cluster, self.icn2_offset
            )
            + (self.dispatcher[dest_cluster],)
            + dest_shape.descending.route(
                entry_peer * dest_shape.num_nodes + dest, self.ecn1_offsets[dest_cluster]
            )
        )

    def flat(self, senders: Iterable[int] = ()) -> FlatRoutes:
        """Every table as one :class:`FlatRoutes` (built once, then cached).

        ``senders`` is accepted for symmetry with
        :meth:`CompiledZooRoutes.flat`; tree tables are always complete.
        """
        if self._flat is None:
            tables: List[Tuple[RouteTable, Optional[np.ndarray]]] = []
            first: Dict[int, int] = {}

            def place(table: RouteTable, flags: Optional[np.ndarray] = None) -> int:
                # Same-shape clusters share one copy of each table.
                if id(table) not in first:
                    first[id(table)] = len(tables)
                    tables.append((table, flags))
                return first[id(table)]

            intra = [place(shape.full, shape.has_switch) for shape in self.shapes]
            ascend = [place(shape.ascending) for shape in self.shapes]
            descend = [place(shape.descending) for shape in self.shapes]
            icn2 = place(self.icn2_shape.full, self.icn2_shape.has_switch)
            offsets, ids, has_switch, firsts = _concatenate(tables)
            bases = np.asarray(firsts, dtype=np.int64)
            self._flat = FlatRoutes(
                offsets,
                ids,
                has_switch,
                bases[intra],
                bases[ascend],
                bases[descend],
                np.asarray(self.icn1_offsets, dtype=np.int64),
                np.asarray(self.ecn1_offsets, dtype=np.int64),
                firsts[icn2],
                self.icn2_offset,
            )
        return self._flat

    def warm(self) -> None:
        """Build :meth:`flat` now (setup-time hook).

        Called by :meth:`repro.api.SimulationEngine.prepare`, so the layout
        is paid outside the timed region and before process-pool fan-out.
        """
        self.flat()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledSystemRoutes({self.core!r})"


class CompiledZooRoutes:
    """Zoo route tables presented through the system-routes surface.

    A zoo topology compiles as a single degenerate cluster, so only the
    intra table carries routes; with every message intra-cluster by
    construction, no kernel ever builds an external journey.
    """

    __slots__ = ("core", "graph")

    def __init__(self, core) -> None:
        self.core = core
        self.graph = compile_graph_routes(core.spec)

    def intra_route(self, cluster: int, source: int, dest: int) -> Tuple[IdTuple, bool]:
        """The journey from ``source`` to ``dest`` and its has-switch flag."""
        return self.graph.route(source, dest)

    def flat(self, senders: Iterable[int] = ()) -> FlatRoutes:
        """The filled rows as :class:`FlatRoutes`, after filling ``senders``'."""
        self.graph.ensure_rows(senders)
        table, flags = self.graph.table()
        zero = np.zeros(1, dtype=np.int64)
        return FlatRoutes(
            table.offsets, table.ids, flags.view(np.uint8), zero, zero, zero, zero, zero, 0, 0
        )

    def warm(self) -> None:
        """Fill every route row (setup-time hook)."""
        self.graph.ensure_complete()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledZooRoutes({self.core!r})"


_SYSTEM_ROUTES: Dict[MultiClusterSpec, CompiledSystemRoutes] = {}
_ZOO_SYSTEM_ROUTES: Dict[Tuple, CompiledZooRoutes] = {}

#: Bound the per-spec cache so sweeps over many organisations cannot pin
#: unbounded memory for the process lifetime.
_SYSTEM_ROUTE_CACHE_LIMIT = 64


def compile_system_routes(spec) -> "CompiledSystemRoutes | CompiledZooRoutes":
    """The (cached) route tables of ``spec``.

    Cached per frozen spec alongside :func:`compile_system`, so repeated
    sweep points, engines and pool workers pay the compilation once per
    process.  ``spec`` may be a :class:`MultiClusterSpec` (the paper's
    system) or a :class:`~repro.topology.zoo.spec.TopologySpec` (a zoo
    member, cached by full topology identity).
    """
    if not isinstance(spec, MultiClusterSpec):
        key = spec.identity
        zoo_routes = _ZOO_SYSTEM_ROUTES.get(key)
        if zoo_routes is None:
            if len(_ZOO_SYSTEM_ROUTES) >= _SYSTEM_ROUTE_CACHE_LIMIT:
                _ZOO_SYSTEM_ROUTES.clear()
            zoo_routes = _ZOO_SYSTEM_ROUTES[key] = CompiledZooRoutes(
                compile_system(spec)
            )
        return zoo_routes
    routes = _SYSTEM_ROUTES.get(spec)
    if routes is None:
        if len(_SYSTEM_ROUTES) >= _SYSTEM_ROUTE_CACHE_LIMIT:
            _SYSTEM_ROUTES.clear()
        routes = _SYSTEM_ROUTES[spec] = CompiledSystemRoutes(compile_system(spec))
    return routes


def decompile(m: int, n: int, ids: IdTuple) -> Tuple[Channel, ...]:
    """Map shape-local channel ids back to their :class:`Channel` objects."""
    compiled = compile_tree(m, n)
    return tuple(compiled.channel_at(cid) for cid in ids)


def route_table_size(m: int, n: int) -> int:
    """Number of ordered node pairs a shape table holds (diagnostic aid)."""
    num_nodes = shared_tree(m, n).num_nodes
    if num_nodes < 2:
        raise ValidationError("route tables need at least two nodes")
    return num_nodes * (num_nodes - 1)


def clear_route_caches() -> None:
    """Drop all compiled route tables (test isolation hook)."""
    _TREE_ROUTES.clear()
    _SYSTEM_ROUTES.clear()
    _GRAPH_ROUTES.clear()
    _ZOO_SYSTEM_ROUTES.clear()
