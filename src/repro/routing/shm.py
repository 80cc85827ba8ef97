"""Shared-memory export of compiled route tables.

Every worker process would otherwise compile the route tables again
(about 0.1 s for fig3's 1120-node system, nearly all of it building Python
tuples from the kernel's arrays).  This module freezes a fully compiled
:class:`~repro.routing.compile.CompiledTreeRoutes` into CSR-packed NumPy
arrays inside a :class:`~repro.topology.shm.SharedArena`, so the persistent
worker daemon compiles each tree shape **once** and its workers map the
tables instead of rebuilding them.

Packing: each of the three per-shape tables (``full`` / ``ascending`` /
``descending``) is a flat list of ``num_nodes**2`` entries, each ``None``
(the diagonal) or a tuple of dense channel ids.  That is exactly a CSR
matrix — one ``int32`` value array plus one ``int64`` row-offset array of
length ``pairs + 1`` — with the invariant that an *empty row is a diagonal
entry*: every off-diagonal route and leg crosses at least one channel, so
emptiness is an unambiguous ``None`` encoding.  ``full_has_switch`` rides
along as a ``uint8`` array.

The attached view, :class:`SharedTreeRoutes`, duck-types the lazy
``CompiledTreeRoutes`` surface (``lazy=True`` with every row already
compiled, ``_fill_row`` a no-op), so
:class:`~repro.routing.compile.CompiledSystemRoutes` rebases it through its
ordinary :class:`~repro.routing.compile.LazyRebasedTable` path — the
system-level compiler needs no shared-memory awareness at all.  Tuples are
materialised per *pair* on first use and memoised, so a worker only pays
materialisation for the pairs its traffic actually routes.

Ownership follows :mod:`repro.topology.shm`: the daemon owns and unlinks
segments; workers attach, read, and exit.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.routing.compile import (
    _TREE_ROUTES,
    CompiledTreeRoutes,
    IdTuple,
    compile_tree_routes,
)
from repro.topology.shm import SharedArena
from repro.utils.validation import ValidationError

__all__ = [
    "SharedGraphRoutes",
    "SharedRouteTable",
    "SharedTreeRoutes",
    "attach_graph_route_tables",
    "attach_route_tables",
    "export_graph_route_tables",
    "export_route_tables",
    "install_graph_route_tables",
    "install_route_tables",
]


def _pack_csr(table: List[Optional[IdTuple]]) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a route table into CSR (values, offsets) arrays."""
    offsets = np.zeros(len(table) + 1, dtype=np.int64)
    values: List[int] = []
    for index, entry in enumerate(table):
        if entry is not None:
            values.extend(entry)
        offsets[index + 1] = len(values)
    return np.asarray(values, dtype=np.int32), offsets


class SharedRouteTable:
    """Pair-indexed route table over CSR arrays, memoising materialised rows.

    ``table[pair]`` returns the id tuple of that (source, other) pair, or
    ``None`` on the diagonal — the exact contract of the flat lists a
    :class:`CompiledTreeRoutes` holds, which is all
    :class:`~repro.routing.compile.LazyRebasedTable` and the simulator read.
    """

    __slots__ = ("_values", "_offsets", "_entries")

    def __init__(self, values: np.ndarray, offsets: np.ndarray) -> None:
        self._values = values
        self._offsets = offsets
        self._entries: List[Optional[IdTuple]] = [None] * (len(offsets) - 1)

    def __getitem__(self, pair: int) -> Optional[IdTuple]:
        entry = self._entries[pair]
        if entry is None:
            start = int(self._offsets[pair])
            stop = int(self._offsets[pair + 1])
            if stop == start:
                return None  # empty CSR row == diagonal == None
            entry = self._entries[pair] = tuple(self._values[start:stop].tolist())
        return entry

    def __len__(self) -> int:
        return len(self._entries)


class _SharedFlagTable:
    """Pair-indexed bool view over the packed ``full_has_switch`` array."""

    __slots__ = ("_flags",)

    def __init__(self, flags: np.ndarray) -> None:
        self._flags = flags

    def __getitem__(self, pair: int) -> bool:
        return bool(self._flags[pair])

    def __len__(self) -> int:
        return len(self._flags)


class SharedTreeRoutes:
    """One shape's complete route tables, mapped from a daemon's arena.

    Presents the *lazy* :class:`CompiledTreeRoutes` surface with every row
    pre-compiled: ``lazy`` is True so the system-route compiler wraps these
    tables in its rebasing views, and the fill hooks are no-ops because the
    exporting process already compiled every pair.
    """

    __slots__ = (
        "m",
        "n",
        "num_nodes",
        "lazy",
        "full",
        "full_has_switch",
        "ascending",
        "descending",
        "compiled_rows",
        "_arena",
    )

    def __init__(self, meta: Dict[str, Any], arena: SharedArena) -> None:
        self.m = int(meta["m"])
        self.n = int(meta["n"])
        self.num_nodes = int(meta["num_nodes"])
        self.lazy = True
        prefix = _routes_prefix(self.m, self.n)
        self.full = SharedRouteTable(
            arena.array(f"{prefix}/full-values"), arena.array(f"{prefix}/full-offsets")
        )
        self.full_has_switch = _SharedFlagTable(arena.array(f"{prefix}/has-switch"))
        self.ascending = SharedRouteTable(
            arena.array(f"{prefix}/ascending-values"),
            arena.array(f"{prefix}/ascending-offsets"),
        )
        self.descending = SharedRouteTable(
            arena.array(f"{prefix}/descending-values"),
            arena.array(f"{prefix}/descending-offsets"),
        )
        self.compiled_rows = set(range(self.num_nodes))
        self._arena = arena

    # Every row was compiled by the exporting process; the lazy-shape hooks
    # the system compiler may call are therefore no-ops.
    def _fill_row(self, source: int) -> None:
        pass

    def ensure_pair(self, source: int, other: int) -> None:
        pass

    def ensure_complete(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedTreeRoutes(m={self.m}, n={self.n}, nodes={self.num_nodes}, "
            f"segment={self._arena.name!r})"
        )


def _routes_prefix(m: int, n: int) -> str:
    return f"routes-{int(m)}x{int(n)}"


def export_route_tables(
    shapes: Iterable[Tuple[int, int]],
) -> Tuple[SharedArena, Dict[str, Any]]:
    """Compile every shape completely and pack its tables into one arena.

    Lazy shapes are forced complete first — the whole point is that workers
    never compile — and the arena plus a JSON-able manifest for
    :func:`attach_route_tables` is returned.  The caller owns the arena.
    """
    arrays: Dict[str, np.ndarray] = {}
    tables: List[Dict[str, int]] = []
    for m, n in dict.fromkeys((int(m), int(n)) for m, n in shapes):
        shape = compile_tree_routes(m, n)
        if not isinstance(shape, CompiledTreeRoutes):  # pragma: no cover - guard
            raise ValidationError(
                f"cannot re-export route shape ({m}, {n}): the cache already "
                "holds a shared view, and only an owning process may export"
            )
        shape.ensure_complete()
        prefix = _routes_prefix(m, n)
        for key, table in (
            ("full", shape.full),
            ("ascending", shape.ascending),
            ("descending", shape.descending),
        ):
            values, offsets = _pack_csr(table)
            arrays[f"{prefix}/{key}-values"] = values
            arrays[f"{prefix}/{key}-offsets"] = offsets
        arrays[f"{prefix}/has-switch"] = np.fromiter(
            (bool(flag) for flag in shape.full_has_switch),
            dtype=np.uint8,
            count=len(shape.full_has_switch),
        )
        tables.append({"m": m, "n": n, "num_nodes": shape.num_nodes})
    arena = SharedArena.create(arrays)
    manifest = dict(arena.manifest())
    manifest["routes"] = tables
    return arena, manifest


def attach_route_tables(
    manifest: Dict[str, Any],
) -> Tuple[SharedArena, Tuple[SharedTreeRoutes, ...]]:
    """Map an :func:`export_route_tables` manifest into shared route views."""
    arena = SharedArena.attach(manifest)
    return arena, tuple(SharedTreeRoutes(meta, arena) for meta in manifest["routes"])


def install_route_tables(manifest: Dict[str, Any]) -> SharedArena:
    """Attach and publish shared tables through :func:`compile_tree_routes`.

    Shapes this process already compiled (fork-inherited caches) win; the
    shared views fill cache misses only.  Returns the arena, which the
    caller must keep referenced while the views are in use.
    """
    arena, shared = attach_route_tables(manifest)
    for routes in shared:
        _TREE_ROUTES.setdefault((routes.m, routes.n), routes)
    return arena


# --------------------------------------------------------------------------- #
# Zoo route tables (repro.routing.compile.CompiledGraphRoutes) over the arena
# --------------------------------------------------------------------------- #
class SharedGraphRoutes:
    """One zoo spec's complete route tables, mapped from a daemon's arena.

    The zoo counterpart of :class:`SharedTreeRoutes`: the *lazy*
    :class:`~repro.routing.compile.CompiledGraphRoutes` surface with every
    row pre-compiled, so the zoo system-route compiler wraps it in its
    ordinary rebasing views and the fill hooks are no-ops.  Zoo shapes only
    carry the ``full`` / ``full_has_switch`` pair — a one-cluster system
    never reads ascend/descend legs.
    """

    __slots__ = (
        "token",
        "num_nodes",
        "lazy",
        "full",
        "full_has_switch",
        "compiled_rows",
        "_arena",
    )

    def __init__(self, meta: Dict[str, Any], arena: SharedArena) -> None:
        self.token = str(meta["token"])
        self.num_nodes = int(meta["num_nodes"])
        self.lazy = True
        prefix = f"routes-{self.token}"
        self.full = SharedRouteTable(
            arena.array(f"{prefix}/full-values"), arena.array(f"{prefix}/full-offsets")
        )
        self.full_has_switch = _SharedFlagTable(arena.array(f"{prefix}/has-switch"))
        self.compiled_rows = set(range(self.num_nodes))
        self._arena = arena

    def _fill_row(self, source: int) -> None:
        pass

    def ensure_pair(self, source: int, other: int) -> None:
        pass

    def ensure_complete(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedGraphRoutes({self.token!r}, nodes={self.num_nodes}, "
            f"segment={self._arena.name!r})"
        )


def export_graph_route_tables(
    specs: Iterable[Any],
) -> Tuple[SharedArena, Dict[str, Any]]:
    """Compile every zoo spec's routes completely and pack them into an arena.

    Mirrors :func:`export_route_tables`; entries are keyed by the spec's
    ``token`` and the manifest carries ``kind``/``params`` so the attaching
    process rebuilds the identity cache key.
    """
    from repro.routing.compile import (
        _GRAPH_ROUTES,
        CompiledGraphRoutes,
        compile_graph_routes,
    )

    arrays: Dict[str, np.ndarray] = {}
    tables: List[Dict[str, Any]] = []
    seen: set = set()
    for spec in specs:
        if spec.identity in seen:
            continue
        seen.add(spec.identity)
        shape = compile_graph_routes(spec)
        if not isinstance(shape, CompiledGraphRoutes):  # pragma: no cover - guard
            raise ValidationError(
                f"cannot re-export zoo routes {spec.token!r}: the cache "
                "already holds a shared view, and only an owning process may "
                "export"
            )
        shape.ensure_complete()
        prefix = f"routes-{spec.token}"
        values, offsets = _pack_csr(shape.full)
        arrays[f"{prefix}/full-values"] = values
        arrays[f"{prefix}/full-offsets"] = offsets
        arrays[f"{prefix}/has-switch"] = np.fromiter(
            (bool(flag) for flag in shape.full_has_switch),
            dtype=np.uint8,
            count=len(shape.full_has_switch),
        )
        tables.append(
            {
                "token": spec.token,
                "kind": spec.kind,
                "params": dict(spec.params),
                "num_nodes": shape.num_nodes,
            }
        )
    arena = SharedArena.create(arrays)
    manifest = dict(arena.manifest())
    manifest["graph_routes"] = tables
    return arena, manifest


def attach_graph_route_tables(
    manifest: Dict[str, Any],
) -> Tuple[SharedArena, Tuple[SharedGraphRoutes, ...]]:
    """Map an :func:`export_graph_route_tables` manifest into shared views."""
    arena = SharedArena.attach(manifest)
    return arena, tuple(
        SharedGraphRoutes(meta, arena) for meta in manifest["graph_routes"]
    )


def install_graph_route_tables(manifest: Dict[str, Any]) -> SharedArena:
    """Attach and publish shared zoo tables through the graph-route cache.

    Specs this process already compiled win (``setdefault`` semantics via
    :func:`repro.routing.compile.install_graph_routes`).  Returns the arena,
    which the caller must keep referenced while the views are in use.
    """
    from repro.routing.compile import install_graph_routes
    from repro.topology.zoo.spec import TopologySpec

    arena, shared = attach_graph_route_tables(manifest)
    for meta, routes in zip(manifest["graph_routes"], shared):
        install_graph_routes(TopologySpec(meta["kind"], dict(meta["params"])), routes)
    return arena
