"""Statistics collector for simulation output.

:class:`Tally` keeps the sample statistics of a stream of observations (the
simulator's message latencies and their parts).  Recording one observation
costs a handful of float operations (simple running sums); :meth:`Tally.extend`
folds a whole NumPy batch with the same arithmetic in the same order.
Summary statistics (mean, variance, percentiles, confidence intervals) are
computed on demand.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.des.exceptions import SimulationError


class Tally:
    """Running sample statistics of a stream of observations.

    Parameters
    ----------
    name:
        Label used in reports.
    keep_samples:
        When True (default) the raw observations are retained so that
        percentiles and exact confidence intervals can be computed.  The
        simulator keeps latency samples; high-volume internal tallies can
        switch this off to save memory.
    """

    def __init__(self, name: str = "tally", keep_samples: bool = True) -> None:
        self.name = name
        self.keep_samples = keep_samples
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._samples: List[float] = []

    # -- recording ----------------------------------------------------------
    def record(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._count += 1
        self._sum += value
        self._sum_sq += value * value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if self.keep_samples:
            self._samples.append(value)

    def extend(self, values: Sequence[float]) -> None:
        """Record a batch of observations, exactly as :meth:`record` would.

        Bit for bit: the running sums continue by ``np.add.accumulate``, a
        sequential left fold in array order (``np.sum`` adds pairwise and
        would round differently), and the extremes replace the current ones
        only on a strictly smaller (larger) value, first occurrence first,
        as ``min``/``max`` do.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if not values.size:
            return
        self._count += len(values)
        self._sum = float(np.add.accumulate(np.concatenate(((self._sum,), values)))[-1])
        self._sum_sq = float(
            np.add.accumulate(np.concatenate(((self._sum_sq,), values * values)))[-1]
        )
        low = float(values[np.argmin(values)])
        if low < self._min:
            self._min = low
        high = float(values[np.argmax(values)])
        if high > self._max:
            self._max = high
        if self.keep_samples:
            self._samples.extend(values.tolist())

    def reset(self) -> None:
        """Forget all observations (used at the end of the warm-up phase)."""
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._samples = []

    # -- statistics ----------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise SimulationError(f"tally {self.name!r} has no observations")
        return self._sum / self._count

    @property
    def variance(self) -> float:
        """Unbiased sample variance (zero for fewer than two observations)."""
        if self._count < 2:
            return 0.0
        mean = self._sum / self._count
        # Clamp tiny negative values produced by floating point cancellation.
        var = (self._sum_sq - self._count * mean * mean) / (self._count - 1)
        return max(var, 0.0)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if self._count == 0:
            raise SimulationError(f"tally {self.name!r} has no observations")
        return self._min

    @property
    def maximum(self) -> float:
        if self._count == 0:
            raise SimulationError(f"tally {self.name!r} has no observations")
        return self._max

    @property
    def samples(self) -> List[float]:
        if not self.keep_samples:
            raise SimulationError(f"tally {self.name!r} does not keep samples")
        return list(self._samples)

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (0 <= q <= 100) of the kept samples."""
        if not 0.0 <= q <= 100.0:
            raise SimulationError(f"percentile must be in [0, 100], got {q!r}")
        samples = sorted(self.samples)
        if not samples:
            raise SimulationError(f"tally {self.name!r} has no observations")
        if len(samples) == 1:
            return samples[0]
        position = (len(samples) - 1) * q / 100.0
        lower = int(math.floor(position))
        upper = int(math.ceil(position))
        if lower == upper:
            return samples[lower]
        weight = position - lower
        return samples[lower] * (1 - weight) + samples[upper] * weight

    def confidence_interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Normal-approximation confidence interval of the mean.

        A normal approximation is adequate here because latency statistics are
        gathered over tens of thousands of messages.
        """
        if not 0.0 < confidence < 1.0:
            raise SimulationError(f"confidence must be in (0, 1), got {confidence!r}")
        if self._count == 0:
            raise SimulationError(f"tally {self.name!r} has no observations")
        if self._count == 1:
            return (self.mean, self.mean)
        z = _normal_ppf(0.5 + confidence / 2.0)
        half_width = z * self.std / math.sqrt(self._count)
        return (self.mean - half_width, self.mean + half_width)

    def summary(self) -> dict:
        """Return a JSON-friendly summary of the tally."""
        if self._count == 0:
            return {"name": self.name, "count": 0}
        return {
            "name": self.name,
            "count": self._count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._count == 0:
            return f"<Tally {self.name!r} empty>"
        return f"<Tally {self.name!r} n={self._count} mean={self.mean:.4g}>"


def _normal_ppf(p: float) -> float:
    """Inverse CDF of the standard normal (Acklam's rational approximation).

    Implemented locally so the DES kernel has no SciPy dependency; accurate to
    ~1e-9 which is far below the statistical noise of any simulation run.
    """
    if not 0.0 < p < 1.0:
        raise SimulationError(f"probability must be in (0, 1), got {p!r}")
    # Coefficients for the rational approximations.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    p_high = 1 - p_low
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    q = math.sqrt(-2 * math.log(1 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
    )
