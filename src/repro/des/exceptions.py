"""Exception types used by the DES kernel."""

from __future__ import annotations

from typing import Any


class SimulationError(RuntimeError):
    """Raised when the kernel is used incorrectly (e.g. yielding a non-event)."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at an ``until`` event."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value

