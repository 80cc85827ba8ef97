"""The m-port n-tree fat-tree topology (Section 2, Eq. 1-2 of the paper).

An *m-port n-tree* [Lin 2003] is a fat tree built from switches with ``m``
ports each, ``n`` switch levels high.  It interconnects

.. math::

    N = 2 \\left(\\frac{m}{2}\\right)^n

processing nodes using

.. math::

    N_{sw} = (2n - 1) \\left(\\frac{m}{2}\\right)^{n-1}

switches (Eq. 1 and 2).  Every switch except the root switches splits its
ports half down / half up; root switches point all ``m`` ports down.  The
topology provides full bisection bandwidth, which is why the paper can ignore
link contention inside a tree.

Addressing scheme
-----------------
Let ``k = m / 2``.

* A **processing node** is a digit tuple ``p = (p_0, p_1, ..., p_{n-1})``
  with ``p_0`` in ``0..m-1`` and all other digits in ``0..k-1``.  Nodes also
  carry a dense integer index (``p`` read as a mixed-radix number, most
  significant digit first).
* A **switch** is a pair ``(level, w)`` where ``level`` runs from 0 (attached
  to nodes) to ``n-1`` (root) and ``w`` is a digit tuple of length ``n-1``.
  Positions ``0 .. n-2-level`` of ``w`` form the *subtree prefix* (which
  subtree of the level the switch serves) and the remaining ``level``
  positions form the *switch index* inside that subtree.  The first prefix
  digit ranges over ``0..m-1``; every other digit ranges over ``0..k-1``.

Two nodes whose digit tuples share a prefix of length ``n - j`` but differ at
position ``n - j`` have their nearest common ancestor (NCA) at switch level
``j - 1`` and are ``2 j`` links apart — the quantity the analytical model's
:func:`repro.model.probabilities.link_probability` distribution describes.

Connectivity
------------
* Node ``p`` attaches to the level-0 switch ``w = (p_0, ..., p_{n-2})``
  through its last digit ``p_{n-1}``.
* Switch ``(level, w)`` connects upward to every switch ``(level+1, w')``
  with ``w'`` equal to ``w`` everywhere except position ``n-2-level`` (the
  butterfly exchange digit), which ranges over ``0..k-1``.

Every physical link is modelled as two directed :class:`Channel` objects so
that the wormhole simulator can put an independent single-flit buffer on each
direction, exactly as assumption 4 of the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from repro.utils.cache import cached
from repro.utils.validation import (
    ValidationError,
    check_even,
    check_positive_int,
)


def num_nodes_formula(m: int, n: int) -> int:
    """Number of processing nodes of an m-port n-tree (Eq. 1)."""
    check_even(m, "m")
    check_positive_int(n, "n")
    return 2 * (m // 2) ** n


def num_switches_formula(m: int, n: int) -> int:
    """Number of switches of an m-port n-tree (Eq. 2)."""
    check_even(m, "m")
    check_positive_int(n, "n")
    return (2 * n - 1) * (m // 2) ** (n - 1)


@dataclass(frozen=True, order=True)
class FatTreeNode:
    """A processing node, identified by its dense index within the tree."""

    index: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.index})"


@dataclass(frozen=True, order=True)
class FatTreeSwitch:
    """A switch, identified by its level and digit-tuple address."""

    level: int
    address: Tuple[int, ...]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switch(level={self.level}, address={self.address})"


Entity = Union[FatTreeNode, FatTreeSwitch]


class ChannelKind(str, Enum):
    """Classification of a directed channel.

    The analytical model distinguishes only node-switch channels (service
    time ``t_cn``, Eq. 14) from switch-switch channels (``t_cs``, Eq. 15);
    the finer up/down split is kept because the router and the simulator need
    it.
    """

    INJECTION = "injection"  # node -> switch
    EJECTION = "ejection"    # switch -> node
    UP = "up"                # switch -> higher-level switch
    DOWN = "down"            # switch -> lower-level switch

    @property
    def is_node_channel(self) -> bool:
        """True for channels with a processing node at one end."""
        return self in (ChannelKind.INJECTION, ChannelKind.EJECTION)


@dataclass(frozen=True)
class Channel:
    """A directed communication channel between two entities of one tree."""

    source: Entity
    target: Entity
    kind: ChannelKind

    def reversed(self) -> "Channel":
        """The channel going the opposite way over the same physical link."""
        reverse_kind = {
            ChannelKind.INJECTION: ChannelKind.EJECTION,
            ChannelKind.EJECTION: ChannelKind.INJECTION,
            ChannelKind.UP: ChannelKind.DOWN,
            ChannelKind.DOWN: ChannelKind.UP,
        }[self.kind]
        return Channel(self.target, self.source, reverse_kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Channel({self.source!r} -> {self.target!r}, {self.kind.value})"


class MPortNTree:
    """An m-port n-tree topology.

    Parameters
    ----------
    m:
        Number of ports per switch (even, at least 2).
    n:
        Number of switch levels (at least 1).  ``n = 1`` degenerates to a
        single m-port switch with ``m`` nodes attached, which is exactly how
        the smallest clusters of Table 1 are built.
    name:
        Optional label (e.g. ``"cluster3/ICN1"``) carried into channel
        diagnostics.
    """

    def __init__(self, m: int, n: int, name: str | None = None) -> None:
        check_even(m, "m")
        check_positive_int(n, "n")
        if m < 2:
            raise ValidationError(f"m must be >= 2, got {m}")
        self.m = int(m)
        self.n = int(n)
        self.k = self.m // 2
        self.name = name or f"{m}-port {n}-tree"
        # Per-instance memo of node index -> digit tuple.  Address arithmetic
        # is the inner loop of the router, and an instance cache (unlike
        # ``functools.lru_cache`` on a method) dies with the tree instead of
        # pinning it for the process lifetime.
        self._address_cache: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------ sizes
    @property
    def num_nodes(self) -> int:
        """Number of processing nodes, Eq. (1)."""
        return 2 * self.k**self.n

    @property
    def num_switches(self) -> int:
        """Number of switches, Eq. (2)."""
        return (2 * self.n - 1) * self.k ** (self.n - 1)

    @property
    def root_level(self) -> int:
        """Index of the root switch level."""
        return self.n - 1

    def switches_per_level(self, level: int) -> int:
        """Number of switches at ``level`` (root level has half as many)."""
        self._check_level(level)
        if level == self.root_level:
            return self.k ** (self.n - 1)
        return 2 * self.k ** (self.n - 1)

    @property
    def num_links(self) -> int:
        """Number of physical (bidirectional) links.

        ``N`` node-switch links plus ``N`` switch-switch links between each
        pair of adjacent switch levels.
        """
        return self.n * self.num_nodes

    @property
    def num_channels(self) -> int:
        """Number of directed channels (two per physical link)."""
        return 2 * self.num_links

    # ------------------------------------------------------------- addressing
    def node_address(self, index: int) -> Tuple[int, ...]:
        """Digit tuple ``(p_0, ..., p_{n-1})`` of the node with dense ``index``."""
        cached = self._address_cache.get(index)
        if cached is not None:
            return cached
        if not 0 <= index < self.num_nodes:
            raise ValidationError(
                f"node index {index} out of range [0, {self.num_nodes})"
            )
        digits = []
        remaining = index
        for position in range(self.n - 1, 0, -1):
            digits.append(remaining % self.k)
            remaining //= self.k
        digits.append(remaining)  # most significant digit, range 0..m-1
        address = tuple(reversed(digits))
        self._address_cache[index] = address
        return address

    def node_index(self, address: Sequence[int]) -> int:
        """Dense index of the node with digit tuple ``address``."""
        address = tuple(address)
        self._check_node_address(address)
        index = address[0]
        for digit in address[1:]:
            index = index * self.k + digit
        return index

    def node(self, index: int) -> FatTreeNode:
        """The :class:`FatTreeNode` with dense ``index`` (validated)."""
        self.node_address(index)  # validates the range
        return FatTreeNode(index)

    def switch(self, level: int, address: Sequence[int]) -> FatTreeSwitch:
        """The :class:`FatTreeSwitch` at ``level`` with digit tuple ``address``."""
        address = tuple(address)
        self._check_switch_address(level, address)
        return FatTreeSwitch(level, address)

    # ------------------------------------------------------------ enumeration
    def nodes(self) -> Iterator[FatTreeNode]:
        """All processing nodes in dense index order."""
        for index in range(self.num_nodes):
            yield FatTreeNode(index)

    def switches_at_level(self, level: int) -> Iterator[FatTreeSwitch]:
        """All switches at ``level`` in lexicographic address order."""
        self._check_level(level)
        for address in self._switch_addresses(level):
            yield FatTreeSwitch(level, address)

    def switches(self) -> Iterator[FatTreeSwitch]:
        """All switches, level 0 (leaf) first."""
        for level in range(self.n):
            yield from self.switches_at_level(level)

    def channels(self) -> Iterator[Channel]:
        """All directed channels of the tree."""
        for node in self.nodes():
            leaf = self.leaf_switch_of(node)
            yield Channel(node, leaf, ChannelKind.INJECTION)
            yield Channel(leaf, node, ChannelKind.EJECTION)
        for level in range(self.n - 1):
            for switch in self.switches_at_level(level):
                for upper in self.up_switches(switch):
                    yield Channel(switch, upper, ChannelKind.UP)
                    yield Channel(upper, switch, ChannelKind.DOWN)

    # ---------------------------------------------------------- neighbourhood
    def leaf_switch_of(self, node: FatTreeNode | int) -> FatTreeSwitch:
        """The level-0 switch the node attaches to."""
        index = node.index if isinstance(node, FatTreeNode) else node
        address = self.node_address(index)
        return FatTreeSwitch(0, address[: self.n - 1])

    def nodes_of_leaf_switch(self, switch: FatTreeSwitch) -> List[FatTreeNode]:
        """The processing nodes attached to a level-0 switch."""
        self._check_switch_address(switch.level, switch.address)
        if switch.level != 0:
            raise ValidationError("only level-0 switches have nodes attached")
        last_digit_range = self.m if self.n == 1 else self.k
        return [
            FatTreeNode(self.node_index(switch.address + (digit,)))
            for digit in range(last_digit_range)
        ]

    def up_switches(self, switch: FatTreeSwitch) -> List[FatTreeSwitch]:
        """Switches one level above connected to ``switch`` (empty at the root)."""
        self._check_switch_address(switch.level, switch.address)
        if switch.level >= self.root_level:
            return []
        exchange = self._exchange_position(switch.level)
        result = []
        for digit in range(self.k):
            address = list(switch.address)
            address[exchange] = digit
            result.append(FatTreeSwitch(switch.level + 1, tuple(address)))
        return result

    def down_switches(self, switch: FatTreeSwitch) -> List[FatTreeSwitch]:
        """Switches one level below connected to ``switch`` (empty at level 0)."""
        self._check_switch_address(switch.level, switch.address)
        if switch.level == 0:
            return []
        below = switch.level - 1
        exchange = self._exchange_position(below)
        digit_range = self.m if exchange == 0 else self.k
        result = []
        for digit in range(digit_range):
            address = list(switch.address)
            address[exchange] = digit
            result.append(FatTreeSwitch(below, tuple(address)))
        return result

    # ------------------------------------------------------------- navigation
    def parent_toward(self, switch: FatTreeSwitch, up_digit: int) -> FatTreeSwitch:
        """The level-above switch reached by taking up-port ``up_digit``."""
        if not 0 <= up_digit < self.k:
            raise ValidationError(f"up_digit must be in [0, {self.k}), got {up_digit}")
        if switch.level >= self.root_level:
            raise ValidationError("root switches have no parent")
        exchange = self._exchange_position(switch.level)
        address = list(switch.address)
        address[exchange] = up_digit
        return FatTreeSwitch(switch.level + 1, tuple(address))

    def child_toward(self, switch: FatTreeSwitch, node: FatTreeNode | int) -> FatTreeSwitch:
        """The level-below switch on the (unique) downward path toward ``node``."""
        if switch.level == 0:
            raise ValidationError("level-0 switches have no child switches")
        index = node.index if isinstance(node, FatTreeNode) else node
        digits = self.node_address(index)
        below = switch.level - 1
        exchange = self._exchange_position(below)
        address = list(switch.address)
        address[exchange] = digits[exchange]
        return FatTreeSwitch(below, tuple(address))

    def is_ancestor(self, switch: FatTreeSwitch, node: FatTreeNode | int) -> bool:
        """True if ``node`` lies in the subtree rooted (conceptually) at ``switch``.

        A switch at level ``l`` serves the subtree identified by its prefix
        digits (positions ``0 .. n-2-l``); root switches serve every node.
        """
        self._check_switch_address(switch.level, switch.address)
        index = node.index if isinstance(node, FatTreeNode) else node
        digits = self.node_address(index)
        prefix_length = self.n - 1 - switch.level
        return digits[:prefix_length] == switch.address[:prefix_length]

    def nca_distance(self, a: FatTreeNode | int, b: FatTreeNode | int) -> int:
        """The paper's ``j``: a 2j-link journey separates nodes ``a`` and ``b``.

        Returns 0 for ``a == b``.
        """
        index_a = a.index if isinstance(a, FatTreeNode) else a
        index_b = b.index if isinstance(b, FatTreeNode) else b
        if index_a == index_b:
            return 0
        digits_a = self.node_address(index_a)
        digits_b = self.node_address(index_b)
        common = 0
        for digit_a, digit_b in zip(digits_a, digits_b):
            if digit_a != digit_b:
                break
            common += 1
        return self.n - common

    def distance(self, a: FatTreeNode | int, b: FatTreeNode | int) -> int:
        """Number of links on the (minimal up*/down*) path between two nodes."""
        return 2 * self.nca_distance(a, b)

    # --------------------------------------------------------------- internals
    def _exchange_position(self, level: int) -> int:
        """Digit position that changes when moving between ``level`` and ``level+1``."""
        return self.n - 2 - level

    def _switch_addresses(self, level: int) -> Iterator[Tuple[int, ...]]:
        if self.n == 1:
            yield ()
            return
        ranges: List[range] = []
        for position in range(self.n - 1):
            if position == 0 and level < self.root_level:
                ranges.append(range(self.m))
            else:
                ranges.append(range(self.k))
        yield from product(*ranges)

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.n:
            raise ValidationError(f"level {level} out of range [0, {self.n})")

    def _check_node_address(self, address: Tuple[int, ...]) -> None:
        if len(address) != self.n:
            raise ValidationError(
                f"node address must have {self.n} digits, got {len(address)}"
            )
        if not 0 <= address[0] < self.m:
            raise ValidationError(
                f"node digit 0 must be in [0, {self.m}), got {address[0]}"
            )
        for position, digit in enumerate(address[1:], start=1):
            if not 0 <= digit < self.k:
                raise ValidationError(
                    f"node digit {position} must be in [0, {self.k}), got {digit}"
                )

    def _check_switch_address(self, level: int, address: Tuple[int, ...]) -> None:
        self._check_level(level)
        if len(address) != self.n - 1:
            raise ValidationError(
                f"switch address must have {self.n - 1} digits, got {len(address)}"
            )
        for position, digit in enumerate(address):
            if position == 0 and level < self.root_level and self.n > 1:
                limit = self.m
            else:
                limit = self.k
            if not 0 <= digit < limit:
                raise ValidationError(
                    f"switch digit {position} must be in [0, {limit}), got {digit}"
                )

    # ------------------------------------------------------------------ dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPortNTree):
            return NotImplemented
        return self.m == other.m and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.m, self.n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MPortNTree(m={self.m}, n={self.n}, nodes={self.num_nodes}, "
            f"switches={self.num_switches})"
        )


#: Module-level shared-tree cache, explicitly keyed by ``(m, n)`` and
#: bounded like every per-shape cache (:func:`repro.utils.cache.cached`).
_SHARED_TREES: Dict[Tuple[int, int], MPortNTree] = {}


def shared_tree(m: int, n: int) -> MPortNTree:
    """A cached, shared m-port n-tree instance.

    Topology objects are logically immutable, so experiments that repeatedly
    build the same Table-1 organisations can share one instance (and its
    address memo) instead of recomputing address tables.  The cache is keyed
    by ``(m, n)`` — the only state a tree has besides its display name.
    """
    return cached(_SHARED_TREES, (int(m), int(n)), lambda: MPortNTree(m, n))


def clear_shared_trees() -> None:
    """Drop every cached :func:`shared_tree` instance (test isolation hook)."""
    _SHARED_TREES.clear()
