"""Baseline models: a single homogeneous cluster and the equal-size approximation.

Prior work on cluster interconnect modelling (the single-cluster queueing
models the paper cites as [10-12]) assumes one homogeneous cluster.  Two
baselines built from those assumptions put the heterogeneous model in
context:

* :class:`SingleClusterModel` — one isolated m-port n-tree cluster, no
  inter-cluster traffic at all.  This is the "prior work" latency model and
  also the building block the paper generalises.
* :class:`EqualSizeApproximationModel` — pretend all ``C`` clusters have the
  same size (the closest representable size to the true mean) and evaluate
  the multi-cluster model on that homogenised organisation.  Comparing it
  with the true heterogeneous prediction quantifies how much accuracy the
  cluster-size heterogeneity modelling actually buys — the ablation of
  :func:`repro.experiments.ablation.heterogeneity_ablation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.model.latency import MultiClusterLatencyModel
from repro.model.parameters import MessageSpec, PAPER_TIMING, TimingParameters
from repro.model.probabilities import link_probability_vector
from repro.model.queueing import QueueSaturated, source_queue_waiting_time
from repro.model.service_time import intra_stage_rates, journey_latency, tail_drain_time
from repro.model.probabilities import average_message_distance
from repro.topology.multicluster import MultiClusterSpec
from repro.utils.validation import check_even, check_non_negative, check_positive_int


@dataclass(frozen=True)
class SingleClusterPrediction:
    """Latency components of an isolated homogeneous cluster."""

    lambda_g: float
    waiting_time: float
    network_latency: float
    tail_time: float
    saturated: bool

    @property
    def mean_latency(self) -> float:
        if self.saturated:
            return math.inf
        return self.waiting_time + self.network_latency + self.tail_time


class SingleClusterModel:
    """Mean latency of one isolated m-port n-tree cluster under uniform traffic.

    This is the paper's machinery with the outgoing probability forced to
    zero: every message stays in the (single) cluster's ICN1.
    """

    def __init__(
        self,
        m: int,
        n: int,
        message: MessageSpec = MessageSpec(),
        timing: TimingParameters = PAPER_TIMING,
    ) -> None:
        check_even(m, "m")
        check_positive_int(n, "n")
        self.m = int(m)
        self.n = int(n)
        self.message = message
        self.timing = timing

    @property
    def num_nodes(self) -> int:
        return 2 * (self.m // 2) ** self.n

    def evaluate(self, lambda_g: float) -> SingleClusterPrediction:
        """Latency components at per-node offered traffic ``lambda_g``."""
        check_non_negative(lambda_g, "lambda_g")
        link = self.timing.link_timing(self.message.flit_bytes)
        message_length = self.message.length_flits
        probabilities = link_probability_vector(self.m, self.n)
        d_avg = average_message_distance(self.m, self.n)

        # With no external traffic the whole generation rate loads the ICN1.
        network_rate = self.num_nodes * lambda_g
        channel_rate = d_avg * network_rate / (4.0 * self.n * self.num_nodes)

        network_latency = 0.0
        tail_time = 0.0
        for j, probability in enumerate(probabilities.tolist(), start=1):
            rates = intra_stage_rates(j, channel_rate)
            network_latency += probability * journey_latency(
                rates, message_length=message_length, t_cs=link.t_cs, t_cn=link.t_cn
            )
            tail_time += probability * tail_drain_time(
                len(rates), t_cs=link.t_cs, t_cn=link.t_cn
            )
        try:
            waiting_time = source_queue_waiting_time(
                network_rate,
                network_latency,
                message_length * link.t_cn,
                name="single-cluster source queue",
            )
        except QueueSaturated:
            return SingleClusterPrediction(
                lambda_g=lambda_g,
                waiting_time=math.inf,
                network_latency=network_latency,
                tail_time=tail_time,
                saturated=True,
            )
        return SingleClusterPrediction(
            lambda_g=lambda_g,
            waiting_time=waiting_time,
            network_latency=network_latency,
            tail_time=tail_time,
            saturated=False,
        )

    def mean_latency(self, lambda_g: float) -> float:
        return self.evaluate(lambda_g).mean_latency

    def latency_curve(self, lambdas: Sequence[float] | Iterable[float]) -> np.ndarray:
        return np.array([self.mean_latency(value) for value in lambdas], dtype=float)


class EqualSizeApproximationModel:
    """The heterogeneous system approximated by equal-size clusters.

    The approximation keeps the number of clusters, the switch arity and (as
    closely as the ``N_i = 2 (m/2)^{n}`` size law permits) the total node
    count, but gives every cluster the same tree height.  The height is
    chosen so the per-cluster size is as close as possible to the true mean
    cluster size.
    """

    def __init__(
        self,
        spec: MultiClusterSpec,
        message: MessageSpec = MessageSpec(),
        timing: TimingParameters = PAPER_TIMING,
    ) -> None:
        self.original_spec = spec
        self.equivalent_height = self._closest_height(spec)
        self.spec = MultiClusterSpec(
            m=spec.m,
            cluster_heights=(self.equivalent_height,) * spec.num_clusters,
            name=(spec.name or f"N={spec.total_nodes}") + " (equal-size approx.)",
        )
        self.model = MultiClusterLatencyModel(self.spec, message, timing)

    @staticmethod
    def _closest_height(spec: MultiClusterSpec) -> int:
        mean_size = spec.total_nodes / spec.num_clusters
        best_height = spec.cluster_heights[0]
        best_error = math.inf
        for height in range(1, max(spec.cluster_heights) + 1):
            size = 2 * spec.k**height
            error = abs(size - mean_size)
            if error < best_error:
                best_error = error
                best_height = height
        return best_height

    @property
    def node_count_error(self) -> int:
        """Difference in total nodes introduced by the approximation."""
        return self.spec.total_nodes - self.original_spec.total_nodes

    def mean_latency(self, lambda_g: float) -> float:
        return self.model.mean_latency(lambda_g)

    def latency_curve(self, lambdas: Sequence[float] | Iterable[float]) -> np.ndarray:
        return self.model.latency_curve(lambdas)

    def heterogeneity_error(self, exact: MultiClusterLatencyModel, lambda_g: float) -> float:
        """Relative error of the approximation against the exact model.

        Positive values mean the equal-size approximation over-estimates the
        latency at this operating point; ``nan`` when either model saturated.
        """
        approximate = self.mean_latency(lambda_g)
        reference = exact.mean_latency(lambda_g)
        if math.isinf(approximate) or math.isinf(reference):
            return math.nan
        return (approximate - reference) / reference
