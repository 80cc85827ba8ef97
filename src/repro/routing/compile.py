"""Precompiled integer route tables for the wormhole hot path.

:class:`~repro.routing.updown.UpDownRouter` is the routing specification:
it produces explicit, validated :class:`Channel` sequences, and the
analytical model's stage accounting is checked against it.  But rebuilding
that object chain for every simulated message is the single largest cost of
a simulation run.  On an m-port n-tree the route is closed form (Eq. 3/4,
:mod:`repro.routing.nca`), so :func:`route_legs` computes it with array
arithmetic over a block of source rows, and this module freezes the result
into integer-indexed route tables:

* :class:`CompiledTreeRoutes` — for one ``(m, n)`` shape: the full
  node-to-node routes plus the ascending and descending ECN1 legs, each as a
  tuple of dense channel ids (ids from
  :func:`repro.topology.compile.compile_tree`).  Shape tables are cached at
  module level: every same-shape cluster of every spec shares them, across
  sweep points and across process-pool workers.
* :class:`CompiledSystemRoutes` — for one :class:`MultiClusterSpec`: the
  shape tables rebased into the global channel-id space of
  :func:`repro.topology.compile.compile_system`, plus the concentrator and
  dispatcher pseudo-channel slots.  Building a journey becomes tuple
  concatenation of precomputed id tuples — no per-message ``Route``,
  ``Channel`` or address arithmetic survives on the hot path.

Every compiled route round-trips: ``decompile(...)`` maps a compiled id
tuple back to the exact ``Channel`` sequence, and the test suite asserts
that the tables equal a router walk over every pair of the figures' shapes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

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
    "LAZY_NODE_THRESHOLD",
    "LazyFlagTable",
    "LazyRebasedTable",
    "compile_graph_routes",
    "compile_tree_routes",
    "compile_system_routes",
    "decompile",
    "clear_route_caches",
    "route_legs",
]

IdTuple = Tuple[int, ...]

#: Shapes with at least this many nodes fill their route tables lazily, one
#: source row per first query, instead of building all O(N²) pairs' tuples
#: at compile time.  The routes themselves are cheap array arithmetic; the
#: Python tuples are what costs.  For 512 nodes (m=8, n=4), the first
#: Table-1-style shape past the threshold, eager tables take about 0.4 s
#: and 86 MiB (786k tuples) on a 2-vCPU Xeon VM, against about 1.5 ms per
#: lazy row, and a typical scenario only ever touches the pairs its
#: traffic pattern draws.
LAZY_NODE_THRESHOLD = 256

#: The three id tables of a shape, by attribute name.
TABLES = ("full", "ascending", "descending")


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


class _LegBlock:
    """:func:`route_legs` of a block of source rows, grouped by length.

    Pairs with the same NCA distance ``j`` have legs of the same length, so
    each group turns into id tuples with one ``tolist`` per column and a
    ``zip``.  Rebasing happens on the array side, before any tuple exists.
    """

    __slots__ = ("num_pairs", "num_channels", "has_switch", "_groups")

    def __init__(self, m: int, n: int, sources: Iterable[int]) -> None:
        lengths, ascending, descending = route_legs(m, n, sources)
        num_nodes = len(descending)
        self.num_pairs = len(lengths)
        self.num_channels = 2 * num_nodes * n
        self.has_switch: List[bool] = (lengths > 1).tolist()
        order = np.argsort(lengths, kind="stable")
        bounds = np.cumsum(np.bincount(lengths, minlength=n + 1))
        self._groups = []
        for j in range(1, n + 1):
            rows = order[bounds[j - 1] : bounds[j]]
            if len(rows):
                self._groups.append(
                    (rows, ascending[rows, :j], descending[rows % num_nodes, j - 1 :: -1])
                )

    def tuples(self, table: str, offset: int = 0) -> List[IdTuple | None]:
        """One of :data:`TABLES` in pair order, ids shifted by ``offset``."""
        # One Python int per rebased channel id, shared by every tuple that
        # holds it, instead of a fresh int per table entry from tolist():
        # it halves the tables' memory.
        id_objects = np.arange(offset, offset + self.num_channels).astype(object)
        entries = np.empty(self.num_pairs, dtype=object)  # None on the diagonal
        for rows, up, down in self._groups:
            if table == "ascending":
                ids = up
            elif table == "descending":
                ids = down
            else:
                ids = np.hstack((up, down))
            columns = id_objects[ids.T].tolist()
            entries[rows] = np.fromiter(zip(*columns), dtype=object, count=len(rows))
        return entries.tolist()


class CompiledTreeRoutes:
    """All deterministic routes of one tree shape as dense-id tuples.

    Tables are flat lists indexed by ``source * num_nodes + other`` (the
    diagonal entries are ``None`` — a message to oneself never routes):

    * ``full[s * N + d]`` — the 2j-link route from node ``s`` to node ``d``:
      ``ascending[s * N + d]`` followed by ``descending[s * N + d]``;
    * ``full_has_switch[...]`` — True when that route crosses at least one
      switch-switch channel (it always crosses node channels), which is all
      the simulator needs to find the slowest hop of an intra-cluster
      journey;
    * ``ascending[s * N + p]`` — the ECN1 ascending leg from ``s`` towards
      exit peer ``p`` (injection + up channels);
    * ``descending[p * N + d]`` — the ECN1 descending leg entered at the NCA
      of entry peer ``p`` and ``d`` (down + ejection channels).

    Small shapes compile every row eagerly, in one :func:`route_legs` call
    (the tables are then plain lists with no indirection on the hot path),
    and keep the grouped leg arrays for :meth:`rebased`.  Tall shapes — at
    least :data:`LAZY_NODE_THRESHOLD` nodes, or ``lazy=True`` explicitly —
    fill one *source row* (all four tables for one ``s``) on the first
    query touching it, so compile cost is O(rows used) instead of O(N²);
    :attr:`compiled_rows` records which rows exist.
    """

    __slots__ = (
        "m",
        "n",
        "num_nodes",
        "full",
        "full_has_switch",
        "ascending",
        "descending",
        "lazy",
        "compiled_rows",
        "_legs",
    )

    def __init__(self, m: int, n: int, lazy: bool | None = None) -> None:
        self.m = int(m)
        self.n = int(n)
        num_nodes = shared_tree(m, n).num_nodes
        self.num_nodes = num_nodes
        self.lazy = num_nodes >= LAZY_NODE_THRESHOLD if lazy is None else bool(lazy)
        if self.lazy:
            pairs = num_nodes * num_nodes
            self.full: List[IdTuple | None] = [None] * pairs
            self.full_has_switch: List[bool] = [False] * pairs
            self.ascending: List[IdTuple | None] = [None] * pairs
            self.descending: List[IdTuple | None] = [None] * pairs
            self.compiled_rows: set = set()
            self._legs = None
        else:
            legs = self._legs = _LegBlock(self.m, self.n, range(num_nodes))
            self.full = legs.tuples("full")
            self.full_has_switch = legs.has_switch
            self.ascending = legs.tuples("ascending")
            self.descending = legs.tuples("descending")
            self.compiled_rows = set(range(num_nodes))

    def rebased(self, table: str, offset: int) -> List[IdTuple | None]:
        """Eager table ``table`` (one of :data:`TABLES`) shifted by ``offset``.

        Offset 0 shares the shape's own list; any other offset builds fresh
        tuples from the kept leg arrays.
        """
        if offset == 0:
            return getattr(self, table)
        return self._legs.tuples(table, offset)

    def _fill_rows(self, sources: List[int]) -> None:
        """Compile all four tables for the given source/entry-peer rows."""
        legs = _LegBlock(self.m, self.n, sources)
        filled = [(getattr(self, table), legs.tuples(table)) for table in TABLES]
        filled.append((self.full_has_switch, legs.has_switch))
        num_nodes = self.num_nodes
        for index, source in enumerate(sources):
            row = slice(source * num_nodes, (source + 1) * num_nodes)
            block = slice(index * num_nodes, (index + 1) * num_nodes)
            for table, entries in filled:
                table[row] = entries[block]
        self.compiled_rows.update(sources)

    def _fill_row(self, source: int) -> None:
        """Compile all four tables for one source/entry-peer row."""
        self._fill_rows([source])

    def ensure_pair(self, source: int, other: int) -> None:
        """Make sure the row covering ``(source, other)`` is compiled."""
        if source not in self.compiled_rows:
            self._fill_row(source)

    def ensure_complete(self) -> None:
        """Compile every remaining row (setup-time warm-up hook).

        Uniform traffic eventually touches every source row, so a simulation
        engine preparing a lazy shape fills it here — outside the timed
        region — instead of paying row compilation inside the first run.
        Single-pair consumers simply never call this.
        """
        missing = [s for s in range(self.num_nodes) if s not in self.compiled_rows]
        if missing:
            self._fill_rows(missing)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "lazy" if self.lazy else "eager"
        return (
            f"CompiledTreeRoutes(m={self.m}, n={self.n}, nodes={self.num_nodes}, "
            f"{mode}, rows={len(self.compiled_rows)})"
        )


_TREE_ROUTES: Dict[Tuple[int, int], CompiledTreeRoutes] = {}


def compile_tree_routes(m: int, n: int) -> CompiledTreeRoutes:
    """The (cached) route tables of the ``(m, n)`` tree shape."""
    key = (int(m), int(n))
    routes = _TREE_ROUTES.get(key)
    if routes is None:
        routes = _TREE_ROUTES[key] = CompiledTreeRoutes(m, n)
    return routes


class CompiledGraphRoutes:
    """All deterministic up*/down* routes of one zoo topology as id tuples.

    The zoo counterpart of :class:`CompiledTreeRoutes`, holding only the
    tables a one-cluster system needs: ``full[s * N + d]`` (dense channel
    ids of the shortest legal route) and ``full_has_switch[...]`` (True
    when the route crosses a switch-switch channel).  Same lazy
    per-source-row discipline, driven by the memoised per-source BFS of
    :class:`~repro.routing.updown.GraphUpDownRouter` — filling a row costs
    one breadth-first search plus one walk per destination.
    """

    __slots__ = (
        "token",
        "num_nodes",
        "full",
        "full_has_switch",
        "lazy",
        "compiled_rows",
        "_router",
        "_ids",
    )

    def __init__(self, spec, lazy: bool | None = None) -> None:
        # Imported lazily: the zoo package is optional on the import path of
        # fat-tree-only consumers.
        from repro.routing.updown import GraphUpDownRouter
        from repro.topology.zoo.compile import compile_graph
        from repro.topology.zoo.spec import build_topology

        topology = build_topology(spec)
        compiled = compile_graph(spec)
        self.token = spec.token
        num_nodes = topology.num_nodes
        self.num_nodes = num_nodes
        self.lazy = num_nodes >= LAZY_NODE_THRESHOLD if lazy is None else bool(lazy)
        self._router = GraphUpDownRouter(topology)
        self._ids = compiled.channel_ids
        self.compiled_rows: set = set()

        pairs = num_nodes * num_nodes
        self.full: List[IdTuple | None] = [None] * pairs
        self.full_has_switch: List[bool] = [False] * pairs
        if not self.lazy:
            for source in range(num_nodes):
                self._fill_row(source)
            self._router = None
            self._ids = None

    def _fill_row(self, source: int) -> None:
        """Compile the full/has-switch tables for one source row."""
        router = self._router
        ids = self._ids
        num_nodes = self.num_nodes
        full = self.full
        has_switch = self.full_has_switch
        base = source * num_nodes
        for other in range(num_nodes):
            if other == source:
                continue
            route = router.route(source, other)
            full[base + other] = tuple(ids[channel] for channel in route)
            has_switch[base + other] = any(
                not channel.kind.is_node_channel for channel in route
            )
        self.compiled_rows.add(source)

    def ensure_pair(self, source: int, other: int) -> None:
        """Make sure the row covering ``(source, other)`` is compiled."""
        if source not in self.compiled_rows:
            self._fill_row(source)

    def ensure_complete(self) -> None:
        """Compile every remaining row (setup-time warm-up hook)."""
        for source in range(self.num_nodes):
            if source not in self.compiled_rows:
                self._fill_row(source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "lazy" if self.lazy else "eager"
        return (
            f"CompiledGraphRoutes({self.token}, nodes={self.num_nodes}, "
            f"{mode}, rows={len(self.compiled_rows)})"
        )


_GRAPH_ROUTES: Dict[Tuple, CompiledGraphRoutes] = {}


def compile_graph_routes(spec) -> CompiledGraphRoutes:
    """The (cached) route tables of zoo topology ``spec``, keyed by identity."""
    key = spec.identity
    routes = _GRAPH_ROUTES.get(key)
    if routes is None:
        routes = _GRAPH_ROUTES[key] = CompiledGraphRoutes(spec)
    return routes


def install_graph_routes(spec, routes: CompiledGraphRoutes) -> CompiledGraphRoutes:
    """Adopt externally built (e.g. shm-attached) graph route tables.

    ``setdefault`` semantics, mirroring the compiled-graph install hook.
    """
    return _GRAPH_ROUTES.setdefault(spec.identity, routes)


class LazyRebasedTable:
    """Pair-indexed view over a lazily filled shape table, rebased on demand.

    Behaves like the flat lists :meth:`CompiledTreeRoutes.rebased` returns
    — ``view[pair]`` with ``pair = source * N + other`` — but compiles the
    source row on the first query touching it and memoises the
    offset-shifted tuple, so a single-pair lookup against a tall shape costs
    one row compilation, not O(N²).
    """

    __slots__ = ("_shape", "_table", "_offset", "_entries", "_num_nodes")

    def __init__(self, shape: CompiledTreeRoutes, table: List[IdTuple | None], offset: int) -> None:
        self._shape = shape
        self._table = table
        self._offset = offset
        self._entries: List[IdTuple | None] = [None] * len(table)
        self._num_nodes = shape.num_nodes

    def __getitem__(self, pair: int) -> IdTuple | None:
        entry = self._entries[pair]
        if entry is None:
            raw = self._table[pair]
            if raw is None:
                source, other = divmod(pair, self._num_nodes)
                if source == other:
                    # Diagonal entries stay None, as in the eager tables.
                    return None
                self._shape._fill_row(source)
                raw = self._table[pair]
            offset = self._offset
            entry = self._entries[pair] = tuple(cid + offset for cid in raw)
        return entry

    def __len__(self) -> int:
        return len(self._entries)


class LazyFlagTable:
    """Pair-indexed view over ``full_has_switch`` of a lazily filled shape."""

    __slots__ = ("_shape",)

    def __init__(self, shape: CompiledTreeRoutes) -> None:
        self._shape = shape

    def __getitem__(self, pair: int) -> bool:
        shape = self._shape
        if shape.full[pair] is None:
            source, other = divmod(pair, shape.num_nodes)
            if source != other:
                shape._fill_row(source)
        return shape.full_has_switch[pair]

    def __len__(self) -> int:
        return len(self._shape.full_has_switch)


class CompiledSystemRoutes:
    """Global-id route tables for every journey of one multi-cluster spec.

    Attributes (all indexed with local node indices; ``N_c`` is the node
    count of cluster ``c``):

    * ``intra[c][s * N_c + d]`` — ICN1 route ids of cluster ``c``;
    * ``intra_has_switch[c][...]`` — slowest-hop flag for those routes;
    * ``ascend[c][s * N_c + p]`` — ECN1 ascending-leg ids of cluster ``c``;
    * ``descend[c][p * N_c + d]`` — ECN1 descending-leg ids of cluster ``c``;
    * ``icn2[sc * C + dc]`` — ICN2 route ids between two concentrators;
    * ``concentrator[c]`` / ``dispatcher[c]`` — relay pseudo-channel slots.
    """

    __slots__ = (
        "core",
        "intra",
        "intra_has_switch",
        "ascend",
        "descend",
        "icn2",
        "concentrator",
        "dispatcher",
    )

    def __init__(self, core: CompiledSystem) -> None:
        self.core = core
        spec = core.spec
        intra: List[List[IdTuple | None]] = []
        intra_has_switch: List[List[bool]] = []
        ascend: List[List[IdTuple | None]] = []
        descend: List[List[IdTuple | None]] = []
        for index, height in enumerate(spec.cluster_heights):
            shape = compile_tree_routes(spec.m, height)
            if shape.lazy:
                intra.append(LazyRebasedTable(shape, shape.full, core.icn1_offsets[index]))
                intra_has_switch.append(LazyFlagTable(shape))
                ascend.append(LazyRebasedTable(shape, shape.ascending, core.ecn1_offsets[index]))
                descend.append(LazyRebasedTable(shape, shape.descending, core.ecn1_offsets[index]))
            else:
                intra.append(shape.rebased("full", core.icn1_offsets[index]))
                intra_has_switch.append(shape.full_has_switch)
                ascend.append(shape.rebased("ascending", core.ecn1_offsets[index]))
                descend.append(shape.rebased("descending", core.ecn1_offsets[index]))
        icn2_shape = compile_tree_routes(spec.m, spec.icn2_height)
        self.intra = intra
        self.intra_has_switch = intra_has_switch
        self.ascend = ascend
        self.descend = descend
        self.icn2 = (
            LazyRebasedTable(icn2_shape, icn2_shape.full, core.icn2_offset)
            if icn2_shape.lazy
            else icn2_shape.rebased("full", core.icn2_offset)
        )
        self.concentrator = tuple(
            core.concentrator_slot(index) for index in range(spec.num_clusters)
        )
        self.dispatcher = tuple(
            core.dispatcher_slot(index) for index in range(spec.num_clusters)
        )

    def warm(self) -> None:
        """Fill every lazy shape table completely (setup-time hook).

        Called by :meth:`repro.api.SimulationEngine.prepare` so scenarios
        whose traffic will touch most pairs anyway (uniform destinations)
        compile outside the timed region and before process-pool fan-out.
        """
        spec = self.core.spec
        for height in (*spec.cluster_heights, spec.icn2_height):
            shape = compile_tree_routes(spec.m, height)
            if shape.lazy:
                shape.ensure_complete()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledSystemRoutes({self.core!r})"


class CompiledZooRoutes:
    """Zoo route tables presented through the system-routes surface.

    A zoo topology compiles as a single degenerate cluster, so only the
    intra tables carry routes; the external machinery (ascend/descend
    legs, ICN2 crossing, relay slots) is empty and — with every message
    intra-cluster by construction — never indexed by any kernel.
    """

    __slots__ = (
        "core",
        "intra",
        "intra_has_switch",
        "ascend",
        "descend",
        "icn2",
        "concentrator",
        "dispatcher",
    )

    def __init__(self, core) -> None:
        self.core = core
        shape = compile_graph_routes(core.spec)
        if shape.lazy:
            self.intra = [LazyRebasedTable(shape, shape.full, 0)]
            self.intra_has_switch = [LazyFlagTable(shape)]
        else:
            self.intra = [shape.full]
            self.intra_has_switch = [shape.full_has_switch]
        self.ascend = ((),)
        self.descend = ((),)
        self.icn2 = ()
        self.concentrator = ()
        self.dispatcher = ()

    def warm(self) -> None:
        """Fill the lazy route table completely (setup-time hook)."""
        shape = compile_graph_routes(self.core.spec)
        if shape.lazy:
            shape.ensure_complete()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledZooRoutes({self.core!r})"


_SYSTEM_ROUTES: Dict[MultiClusterSpec, CompiledSystemRoutes] = {}
_ZOO_SYSTEM_ROUTES: Dict[Tuple, CompiledZooRoutes] = {}

#: Rebased system tables are the largest compiled artifact (O(sum N_i^2)
#: tuples per spec); bound the cache so sweeps over many organisations
#: cannot pin unbounded memory for the process lifetime.
_SYSTEM_ROUTE_CACHE_LIMIT = 64


def compile_system_routes(spec) -> "CompiledSystemRoutes | CompiledZooRoutes":
    """The (cached) global-id route tables of ``spec``.

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
