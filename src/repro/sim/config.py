"""Simulation run configuration (the paper's Section 4 methodology)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive_int,
)


@dataclass(frozen=True)
class SimulationConfig:
    """How long to simulate and how to gather statistics.

    The paper gathers statistics over 100 000 messages, discards the first
    10 000 (warm-up) and generates 10 000 more whose delivery it does not
    wait to record (drain).  Those are the ``paper()`` defaults; the regular
    defaults are one tenth of that so the example scripts and benchmarks run
    in seconds on a laptop while preserving the methodology.

    Attributes
    ----------
    measured_messages:
        Number of delivered messages whose latency enters the statistics.
    warmup_messages:
        Number of initial messages excluded from the statistics.
    drain_messages:
        Number of messages generated after the measurement window so the
        network stays loaded while the last measured messages drain.
    seed:
        Root seed of all random streams (arrivals, destinations, routing
        peers); the same seed reproduces the same run bit for bit.  ``None``
        or a non-negative integer (Python or NumPy).
    max_time:
        Safety cap on simulated time; a run that exceeds it is reported as
        saturated rather than looping forever.
    """

    measured_messages: int = 10_000
    warmup_messages: int = 1_000
    drain_messages: int = 1_000
    seed: int | None = 0
    max_time: float = 5_000_000.0

    def __post_init__(self) -> None:
        check_positive_int(self.measured_messages, "measured_messages")
        check_non_negative_int(self.warmup_messages, "warmup_messages")
        check_non_negative_int(self.drain_messages, "drain_messages")
        if self.seed is not None:
            check_non_negative_int(self.seed, "seed")
        check_non_negative(self.max_time, "max_time")

    @classmethod
    def paper(cls, seed: int | None = 0) -> "SimulationConfig":
        """The exact message budget of the paper's validation study."""
        return cls(
            measured_messages=100_000,
            warmup_messages=10_000,
            drain_messages=10_000,
            seed=seed,
        )

    @classmethod
    def quick(cls, seed: int | None = 0) -> "SimulationConfig":
        """A small budget for unit tests and smoke runs."""
        return cls(
            measured_messages=1_500,
            warmup_messages=150,
            drain_messages=150,
            seed=seed,
        )

    @property
    def total_messages(self) -> int:
        """Total number of messages generated over the run."""
        return self.measured_messages + self.warmup_messages + self.drain_messages

    def with_seed(self, seed: int | None) -> "SimulationConfig":
        """The same budget with a different random seed (for replications)."""
        return replace(self, seed=seed)

    def scaled(self, factor: float) -> "SimulationConfig":
        """A configuration with all message counts scaled by ``factor``."""
        if factor <= 0:
            raise ValueError(f"factor must be > 0, got {factor}")
        return replace(
            self,
            measured_messages=max(1, int(self.measured_messages * factor)),
            warmup_messages=int(self.warmup_messages * factor),
            drain_messages=int(self.drain_messages * factor),
        )
