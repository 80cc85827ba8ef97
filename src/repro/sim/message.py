"""The message objects tracked by the simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class Message:
    """One wormhole message and its timing record.

    Times are simulation timestamps; ``None`` until the event happens.
    ``measured`` marks messages inside the measurement window (not warm-up,
    not drain).  The dataclass is slotted: a paper-budget run allocates over
    a hundred thousand messages, and dropping the per-instance ``__dict__``
    keeps them cheap to create and collect.
    """

    index: int
    source_cluster: int
    source_node: int
    dest_cluster: int
    dest_node: int
    length_flits: int
    created_at: float
    measured: bool = True
    injected_at: Optional[float] = None
    delivered_at: Optional[float] = None

    @property
    def is_external(self) -> bool:
        """True for inter-cluster messages (they cross ECN1 and ICN2)."""
        return self.source_cluster != self.dest_cluster

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.index}, c{self.source_cluster}n{self.source_node} -> "
            f"c{self.dest_cluster}n{self.dest_node})"
        )
