"""The message objects tracked by the simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.validation import ValidationError


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

    @property
    def latency(self) -> float:
        """Total latency: generation to tail delivery (includes source queueing)."""
        if self.delivered_at is None:
            raise ValidationError(f"message {self.index} has not been delivered")
        return self.delivered_at - self.created_at

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting for the injection channel (the source queue)."""
        if self.injected_at is None:
            raise ValidationError(f"message {self.index} has not been injected")
        return self.injected_at - self.created_at

    @property
    def network_latency(self) -> float:
        """Latency excluding the source queue (header injection to delivery)."""
        if self.delivered_at is None or self.injected_at is None:
            raise ValidationError(f"message {self.index} has not been delivered")
        return self.delivered_at - self.injected_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.index}, c{self.source_cluster}n{self.source_node} -> "
            f"c{self.dest_cluster}n{self.dest_node})"
        )
