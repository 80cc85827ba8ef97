"""Latency statistics gathering and the simulation result record."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.des import Tally
from repro.sim.message import Message
from repro.utils.validation import ValidationError


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
    #: True when the run hit its safety time limit before delivering the
    #: measured messages — the operating point is beyond saturation
    saturated: bool
    #: wall-clock seconds the run took (useful for benchmark reporting)
    wall_clock_seconds: float = 0.0
    #: per-network (mean, max) channel utilisation over the run, keyed by
    #: network name (ICN1/ECN1 pools, "ICN2", "concentrators"); empty when
    #: utilisation accounting was not requested
    channel_utilisation: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: root RNG seed the run was executed with (None when seeded from OS
    #: entropy); together with the configuration it makes the run reproducible
    #: from its serialised form
    seed: Optional[int] = None
    #: discrete events the run's kernel processed (0 when the kernel predates
    #: event accounting); feeds the benchmark's events-per-second figure
    events_processed: int = 0

    def bottleneck(self) -> Optional[str]:
        """Name of the network with the busiest single channel (None if unknown)."""
        if not self.channel_utilisation:
            return None
        return max(self.channel_utilisation, key=lambda name: self.channel_utilisation[name][1])

    def summary(self) -> Dict[str, float]:
        """JSON-friendly scalar summary (used by EXPERIMENTS.md generation)."""
        return {
            "lambda_g": self.lambda_g,
            "measured_messages": self.measured_messages,
            "mean_latency": self.mean_latency,
            "std_latency": self.std_latency,
            "ci_low": self.confidence_interval[0],
            "ci_high": self.confidence_interval[1],
            "mean_queueing_delay": self.mean_queueing_delay,
            "external_fraction": self.external_fraction,
            "throughput": self.throughput,
            "saturated": self.saturated,
            "seed": self.seed,
            "wall_clock_seconds": self.wall_clock_seconds,
        }


@dataclass
class StatisticsCollector:
    """Accumulates message records during a run and produces the result."""

    num_clusters: int
    latency: Tally = field(default_factory=lambda: Tally("latency"))
    queueing: Tally = field(default_factory=lambda: Tally("queueing", keep_samples=False))
    network: Tally = field(default_factory=lambda: Tally("network", keep_samples=False))
    external_count: int = 0
    first_measured_at: Optional[float] = None
    last_measured_at: Optional[float] = None
    _per_cluster: Dict[int, Tally] = field(default_factory=dict)

    def record(self, message: Message) -> None:
        """Record one delivered, measured message."""
        if not message.measured:
            raise ValidationError("only measured messages should be recorded")
        self.latency.record(message.latency)
        self.queueing.record(message.queueing_delay)
        self.network.record(message.network_latency)
        if message.is_external:
            self.external_count += 1
        cluster_tally = self._per_cluster.setdefault(
            message.source_cluster, Tally(f"cluster{message.source_cluster}", keep_samples=False)
        )
        cluster_tally.record(message.latency)
        if self.first_measured_at is None:
            self.first_measured_at = message.delivered_at
        self.last_measured_at = message.delivered_at

    def record_deliveries(
        self,
        source_clusters: np.ndarray,
        external: np.ndarray,
        created: np.ndarray,
        injected: np.ndarray,
        delivered: np.ndarray,
    ) -> None:
        """Record a batch of deliveries, given in delivery order, as arrays.

        The vectorized kernel returns its deliveries as flat arrays and
        never builds :class:`~repro.sim.message.Message` instances.  This
        performs the *identical* float arithmetic in the identical order as
        calling :meth:`record` on each message in turn: element-wise
        differences, then :meth:`Tally.extend`'s sequential folds — tallies
        accumulate running sums, so even a reordering of two additions
        would break golden-seed bit-identity.
        """
        if not len(delivered):
            return
        latency = delivered - created
        self.latency.extend(latency)
        self.queueing.extend(injected - created)
        self.network.extend(delivered - injected)
        self.external_count += int(np.count_nonzero(external))
        for cluster in np.unique(source_clusters).tolist():
            cluster_tally = self._per_cluster.setdefault(
                cluster, Tally(f"cluster{cluster}", keep_samples=False)
            )
            cluster_tally.extend(latency[source_clusters == cluster])
        if self.first_measured_at is None:
            self.first_measured_at = float(delivered[0])
        self.last_measured_at = float(delivered[-1])

    @property
    def recorded(self) -> int:
        return self.latency.count

    def result(
        self,
        *,
        lambda_g: float,
        saturated: bool,
        wall_clock_seconds: float = 0.0,
        channel_utilisation: Optional[Dict[str, Tuple[float, float]]] = None,
        seed: Optional[int] = None,
        events_processed: int = 0,
    ) -> SimulationResult:
        """Finalise the statistics into a :class:`SimulationResult`."""
        utilisation = channel_utilisation or {}
        if self.recorded == 0:
            return SimulationResult(
                lambda_g=lambda_g,
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
                wall_clock_seconds=wall_clock_seconds,
                channel_utilisation=utilisation,
                seed=seed,
                events_processed=events_processed,
            )
        clusters = tuple(
            ClusterStatistics(
                cluster=cluster,
                count=tally.count,
                mean_latency=tally.mean,
                std_latency=tally.std,
            )
            for cluster, tally in sorted(self._per_cluster.items())
        )
        span = 0.0
        if self.first_measured_at is not None and self.last_measured_at is not None:
            span = self.last_measured_at - self.first_measured_at
        throughput = self.recorded / span if span > 0 else 0.0
        return SimulationResult(
            lambda_g=lambda_g,
            measured_messages=self.recorded,
            mean_latency=self.latency.mean,
            std_latency=self.latency.std,
            confidence_interval=self.latency.confidence_interval(0.95),
            mean_queueing_delay=self.queueing.mean,
            mean_network_latency=self.network.mean,
            external_fraction=self.external_count / self.recorded,
            clusters=clusters,
            measurement_time=span,
            throughput=throughput,
            saturated=saturated,
            wall_clock_seconds=wall_clock_seconds,
            channel_utilisation=utilisation,
            seed=seed,
            events_processed=events_processed,
        )


def _fold_mean(values: np.ndarray) -> float:
    """The mean as a left-to-right loop computes it.

    ``np.add.accumulate`` adds in array order, as a Python ``for`` loop
    does; ``np.sum`` adds pairwise, and the builtin ``sum`` compensates
    its rounding since Python 3.12, so either would change the last bits.
    """
    return float(np.add.accumulate(values)[-1]) / len(values)


def channel_utilisation(
    core, busy: Sequence[float], grants: Sequence[int], pool_touch_order, elapsed: float
) -> Dict[str, Tuple[float, float]]:
    """Per-network (mean, max) channel utilisation over a run.

    ``busy`` and ``grants`` are per-slot busy time and grant counts,
    ``pool_touch_order[pool]`` the slots of each pool in the order journeys
    first touched them (the summation order), ``elapsed`` the run's final
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
    num_clusters = core.spec.num_clusters
    labels = core.utilisation_labels
    report: Dict[str, Tuple[float, float]] = {}
    for label, start in ((labels[0], 0), (labels[1], num_clusters)):
        means, peaks = [], []
        for pool in range(start, start + num_clusters):
            order = pool_touch_order[pool]
            if len(order):
                values = fractions[order]
                means.append(_fold_mean(values))
                peaks.append(float(values.max()))
        if means:
            report[label] = (_fold_mean(np.asarray(means)), max(peaks))
    icn2_order = pool_touch_order[2 * num_clusters]
    if len(icn2_order):
        values = fractions[icn2_order]
        report[labels[2]] = (_fold_mean(values), float(values.max()))
    relays = np.concatenate(
        (
            np.arange(core.concentrator_base, core.concentrator_base + num_clusters),
            np.arange(core.dispatcher_base, core.dispatcher_base + num_clusters),
        )
    )
    relays = relays[np.asarray(grants)[relays] != 0]
    if relays.size:
        values = fractions[relays]
        report[labels[3]] = (_fold_mean(values), float(values.max()))
    return report
