"""Arrival processes: Poisson (assumption 1) and deterministic (for tests)."""

from __future__ import annotations

import numpy as np

from repro.workloads.base import ArrivalProcess
from repro.utils.validation import check_positive


class PoissonArrivals(ArrivalProcess):
    """Poisson message generation with mean rate ``lambda_g`` (assumption 1)."""

    def __init__(self, rate: float) -> None:
        check_positive(rate, "rate")
        self._rate = float(rate)

    @property
    def rate(self) -> float:
        return self._rate

    def next_interarrival(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self._rate))


class DeterministicArrivals(ArrivalProcess):
    """Fixed inter-arrival times.

    Useful in unit tests (fully predictable event sequences) and as a
    variance ablation against the Poisson assumption.
    """

    def __init__(self, rate: float) -> None:
        check_positive(rate, "rate")
        self._rate = float(rate)

    @property
    def rate(self) -> float:
        return self._rate

    def next_interarrival(self, rng: np.random.Generator) -> float:  # noqa: ARG002
        return 1.0 / self._rate
