"""The run record both kernels fill, the one fold over it, and the result.

Both kernels end a run holding the same flat :class:`RunOutcome`: the
measured deliveries in delivery order, per-slot channel accounting, the
slots in first-touch order and the final clock.  :func:`summarise` turns
that record into a :class:`SimulationResult`, so every statistic is
computed once, with the same arithmetic, whichever kernel ran.

Every sum is an explicit left fold (``np.add.accumulate``), the order a
plain Python ``for`` loop adds in: ``np.sum`` adds pairwise, and the
builtin ``sum`` compensates its rounding from Python 3.12 on, so either
would change the last bits the golden-seed fixtures pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: z of the two-sided 95% normal-approximation interval, with the bits the
#: golden fixtures were computed with (a rational approximation of the
#: normal quantile at 0.975; ``statistics.NormalDist().inv_cdf(0.975)``
#: differs in its last bits)
Z_95 = float.fromhex("0x1.f5c03325b95a6p+0")


class RunOutcome(NamedTuple):
    """What one run leaves behind, all flat and the same on both kernels."""

    #: measured deliveries in delivery order: source cluster, whether the
    #: message left its cluster, and its created, injected and delivered times
    clusters: np.ndarray
    external: np.ndarray
    created: np.ndarray
    injected: np.ndarray
    delivered: np.ndarray
    #: per-slot busy time and grant counts
    busy_time: np.ndarray
    total_grants: np.ndarray
    #: slots in the order journeys first touched them
    touch_order: np.ndarray
    #: the final clock
    now: float
    #: events the kernel processed (each kernel counts its own events)
    events: int
    #: whether every measured message was delivered before the time guard
    done: bool


@dataclass(frozen=True)
class ClusterStatistics:
    """Latency statistics of the measured messages originating in one cluster."""

    cluster: int
    count: int
    mean_latency: float
    std_latency: float


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulation run at one operating point."""

    lambda_g: float
    #: number of measured (recorded) messages
    measured_messages: int
    #: overall mean message latency over the measured messages
    mean_latency: float
    std_latency: float
    confidence_interval: Tuple[float, float]
    #: mean time spent waiting for the injection channel
    mean_queueing_delay: float
    #: mean latency excluding the source queue
    mean_network_latency: float
    #: share of measured messages that crossed cluster boundaries
    external_fraction: float
    #: per-source-cluster statistics
    clusters: Tuple[ClusterStatistics, ...]
    #: simulated time spanned by the measurement window
    measurement_time: float
    #: delivered-messages throughput over the measurement window
    throughput: float
    #: True when the clock reached ``SimulationConfig.max_time`` before every
    #: measured message was delivered, or when nothing was measured.  It does
    #: not say whether the operating point is past saturation: a run past
    #: the knee can finish inside the cap, and a stable run of a small
    #: system at low load can reach it (ROADMAP item 2)
    saturated: bool
    #: wall-clock seconds the kernel's ``execute()`` took, statistics excluded
    wall_clock_seconds: float = 0.0
    #: per-network (mean, max) channel utilisation over the run, keyed by
    #: network name (ICN1/ECN1 pools, "ICN2", "concentrators"); empty when
    #: the run's clock never advanced
    channel_utilisation: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: root RNG seed the run was executed with (None when seeded from OS
    #: entropy); together with the configuration it makes the run reproducible
    #: from its serialised form
    seed: Optional[int] = None
    #: discrete events the run's kernel processed, counted per kernel (the
    #: generator kernel also counts process start-up and completion events
    #: and the grants the native core elides); feeds the benchmark's
    #: events-per-second figure
    events_processed: int = 0

    def bottleneck(self) -> Optional[str]:
        """Name of the network with the busiest single channel (None if unknown)."""
        if not self.channel_utilisation:
            return None
        return max(self.channel_utilisation, key=lambda name: self.channel_utilisation[name][1])


def _left_sum(values: np.ndarray) -> float:
    """``(0.0 + values[0]) + values[1] + ...``, the sum a Python loop computes."""
    return float(np.add.accumulate(np.concatenate(((0.0,), values)))[-1])


def _mean(values: np.ndarray) -> float:
    return _left_sum(values) / len(values)


def _moments(values: np.ndarray) -> Tuple[int, float, float]:
    """Count, mean and sample standard deviation, from running sums."""
    count = len(values)
    mean = _mean(values)
    if count < 2:
        return count, mean, 0.0
    variance = (_left_sum(values * values) - count * mean * mean) / (count - 1)
    # Cancellation can leave a tiny negative variance; clamp it.
    return count, mean, math.sqrt(max(variance, 0.0))


def summarise(
    record: RunOutcome,
    core,
    pool_index: np.ndarray,
    *,
    lambda_g: float,
    seed: Optional[int] = None,
    wall_clock_seconds: float = 0.0,
) -> SimulationResult:
    """The :class:`SimulationResult` of one run, folded from its record.

    ``core`` is the run's compiled system and ``pool_index`` its
    ``pool_index_list`` as an array (see :func:`channel_utilisation`).  A
    record without measured deliveries reads as saturated, with an
    infinite mean latency.
    """
    common = dict(
        lambda_g=lambda_g,
        wall_clock_seconds=wall_clock_seconds,
        channel_utilisation=channel_utilisation(
            core,
            pool_index,
            record.busy_time,
            record.total_grants,
            record.touch_order,
            record.now,
        ),
        seed=seed,
        events_processed=record.events,
    )
    created, injected, delivered = record.created, record.injected, record.delivered
    count = len(delivered)
    if not count:
        return SimulationResult(
            measured_messages=0,
            mean_latency=math.inf,
            std_latency=math.nan,
            confidence_interval=(math.inf, math.inf),
            mean_queueing_delay=math.nan,
            mean_network_latency=math.nan,
            external_fraction=math.nan,
            clusters=(),
            measurement_time=0.0,
            throughput=0.0,
            saturated=True,
            **common,
        )
    latency = delivered - created
    _, mean, std = _moments(latency)
    if count == 1:
        interval = (mean, mean)
    else:
        half_width = Z_95 * std / math.sqrt(count)
        interval = (mean - half_width, mean + half_width)
    sources = record.clusters
    span = float(delivered[-1]) - float(delivered[0])
    return SimulationResult(
        measured_messages=count,
        mean_latency=mean,
        std_latency=std,
        confidence_interval=interval,
        mean_queueing_delay=_mean(injected - created),
        mean_network_latency=_mean(delivered - injected),
        external_fraction=int(np.count_nonzero(record.external)) / count,
        clusters=tuple(
            ClusterStatistics(cluster, *_moments(latency[sources == cluster]))
            for cluster in np.unique(sources).tolist()
        ),
        measurement_time=span,
        throughput=count / span if span > 0 else 0.0,
        saturated=not record.done,
        **common,
    )


def channel_utilisation(
    core,
    pool_index: np.ndarray,
    busy: Sequence[float],
    grants: Sequence[int],
    touch_order: np.ndarray,
    elapsed: float,
) -> Dict[str, Tuple[float, float]]:
    """Per-network (mean, max) channel utilisation over a run.

    ``pool_index[slot]`` is the pool of each slot (``core.pool_index_list``
    as an array), ``busy`` and ``grants`` are per-slot busy time and grant
    counts, ``touch_order`` the slots in the order journeys first touched
    them (each pool sums in that order), ``elapsed`` the run's final
    clock.  ICN1 and ECN1 pools are aggregated over clusters (the max picks
    out the busiest cluster's busiest channel); the concentrator/dispatcher
    units are reported as their own "network", from the relay slots that
    were ever granted, because they are the physical bottleneck of the
    Table 1 organisations.  Every mean is a left-to-right fold, so the
    report is the same on every Python version.
    """
    if elapsed <= 0:
        return {}
    fractions = np.minimum(np.asarray(busy, dtype=np.float64) / elapsed, 1.0)
    pools = pool_index[touch_order]

    def touched(pool: int) -> np.ndarray:
        return fractions[touch_order[pools == pool]]

    num_clusters = core.spec.num_clusters
    labels = core.utilisation_labels
    report: Dict[str, Tuple[float, float]] = {}
    for label, start in ((labels[0], 0), (labels[1], num_clusters)):
        means, peaks = [], []
        for pool in range(start, start + num_clusters):
            values = touched(pool)
            if len(values):
                means.append(_mean(values))
                peaks.append(float(values.max()))
        if means:
            report[label] = (_mean(np.asarray(means)), max(peaks))
    values = touched(2 * num_clusters)
    if len(values):
        report[labels[2]] = (_mean(values), float(values.max()))
    relays = np.concatenate(
        (
            np.arange(core.concentrator_base, core.concentrator_base + num_clusters),
            np.arange(core.dispatcher_base, core.dispatcher_base + num_clusters),
        )
    )
    relays = relays[np.asarray(grants)[relays] != 0]
    if relays.size:
        values = fractions[relays]
        report[labels[3]] = (_mean(values), float(values.max()))
    return report
