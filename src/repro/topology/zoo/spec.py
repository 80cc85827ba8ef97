"""Declarative (JSON-safe) descriptions of zoo topologies.

:class:`TopologySpec` is the zoo's counterpart of
:class:`repro.api.PatternSpec`: a ``kind`` naming a registered topology
family plus the integer constructor parameters, so a scenario can carry a
zoo topology through JSON round trips, campaign plans and content-store
keys.  The spec also plays the role :class:`~repro.topology.multicluster.
MultiClusterSpec` plays for the paper's system — it keys the compile
caches (via :attr:`TopologySpec.identity`, since the params mapping is
not hashable) and labels compiled artifacts (:attr:`TopologySpec.token`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.utils.validation import ValidationError

__all__ = [
    "TopologySpec",
    "ZOO_BUILDERS",
    "build_topology",
    "clear_shared_topologies",
    "register_topology",
    "zoo_kinds",
]

#: Topology family constructors by kind name.
ZOO_BUILDERS: Dict[str, Callable[..., Any]] = {}


def register_topology(kind: str, builder: Callable[..., Any]) -> None:
    """Register a topology family ``builder(**params) -> ZooTopology``."""
    if not kind:
        raise ValidationError("topology kind must not be empty")
    ZOO_BUILDERS[kind] = builder


def zoo_kinds() -> Tuple[str, ...]:
    """All registered topology family names, sorted."""
    _ensure_builtin_families()
    return tuple(sorted(ZOO_BUILDERS))


def _ensure_builtin_families() -> None:
    # Imported lazily so `spec` stays importable without pulling the graph
    # classes in (and to avoid a cycle with modules importing TopologySpec).
    if "torus" not in ZOO_BUILDERS:
        from repro.topology.zoo.graphs import FanoutTree, KAryFatTree, Torus2D

        register_topology("fattree", KAryFatTree)
        register_topology("tree", FanoutTree)
        register_topology("torus", Torus2D)


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of one zoo topology.

    ``kind`` names a registered family (``"fattree"``, ``"tree"``,
    ``"torus"``) and ``params`` carries its integer constructor arguments,
    e.g. ``TopologySpec("torus", {"rows": 4, "cols": 4})``.
    """

    kind: str
    params: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _ensure_builtin_families()
        if self.kind not in ZOO_BUILDERS:
            raise ValidationError(
                f"unknown topology kind {self.kind!r}; "
                f"expected one of {sorted(ZOO_BUILDERS)}"
            )
        object.__setattr__(
            self, "params", {str(key): int(value) for key, value in self.params.items()}
        )

    # ------------------------------------------------------------- identity
    @property
    def identity(self) -> Tuple[Any, ...]:
        """Hashable full identity — the compile-cache key for this spec."""
        return (self.kind, tuple(sorted(self.params.items())))

    @property
    def token(self) -> str:
        """Filesystem-safe identity token (labels and test ids)."""
        args = "-".join(f"{key}{value}" for key, value in sorted(self.params.items()))
        return f"zoo-{self.kind}-{args}" if args else f"zoo-{self.kind}"

    # ---------------------------------------------------- system-like surface
    @property
    def name(self) -> str:
        return build_topology(self).name

    @property
    def num_clusters(self) -> int:
        """Zoo topologies compile as a single degenerate cluster."""
        return 1

    @property
    def total_nodes(self) -> int:
        return build_topology(self).num_nodes

    def build(self) -> Any:
        """Instantiate the concrete :class:`~repro.topology.zoo.graphs.ZooTopology`."""
        return ZOO_BUILDERS[self.kind](**self.params)

    def describe(self) -> str:
        topology = build_topology(self)
        return (
            f"{topology.name}: hosts={topology.num_nodes}, "
            f"switches={topology.num_switches}, links={topology.num_links}"
        )


#: Shared topology instances keyed by full identity, so the compile pass,
#: the router and the tests all reuse one memoised link/depth computation.
_SHARED_TOPOLOGIES: Dict[Tuple[Any, ...], Any] = {}


def build_topology(spec: TopologySpec) -> Any:
    """The (cached) shared topology instance of ``spec``."""
    topology = _SHARED_TOPOLOGIES.get(spec.identity)
    if topology is None:
        topology = _SHARED_TOPOLOGIES[spec.identity] = spec.build()
    return topology


def clear_shared_topologies() -> None:
    """Drop the shared topology instances (test isolation hook)."""
    _SHARED_TOPOLOGIES.clear()
