"""Mean message latency inside one cluster's ICN1 (Eq. 3, 23-25).

A message that stays inside cluster ``i`` is injected into the ICN1 (an
m-port ``n_i``-tree), crosses ``2j`` links with probability ``P_{j,n_i}``
and experiences three latency components:

* ``W``: waiting in the source queue (M/G/1, Eq. 23);
* ``S``: the network latency of the header — the service time of the first
  stage including all downstream blocking (Eq. 3 with Eq. 16-18);
* ``R``: the pipeline drain of the tail flit (Eq. 24).

Their sum is ``T_I1^{(i)}`` (Eq. 25).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.model.parameters import ModelParameters
from repro.model.probabilities import link_probability_vector
from repro.model.queueing import QueueSaturated, source_queue_waiting_time
from repro.model.service_time import (
    intra_stage_rates,
    journey_latency,
    tail_drain_time,
)
from repro.model.traffic import icn1_channel_rate, icn1_rate


@dataclass(frozen=True)
class IntraClusterLatency:
    """Latency components of intra-cluster (ICN1) messages of one cluster."""

    cluster: int
    #: mean waiting time at the source queue, ``W`` (Eq. 23)
    waiting_time: float
    #: mean network latency of the header, ``S`` (Eq. 3)
    network_latency: float
    #: mean tail-drain time, ``R`` (Eq. 24)
    tail_time: float
    #: source-queue utilisation ``rho`` (diagnostic)
    utilisation: float
    #: True when the source queue saturated at this operating point
    saturated: bool

    @property
    def total(self) -> float:
        """``T_I1^{(i)} = W + S + R`` (Eq. 25), infinite when saturated."""
        if self.saturated:
            return math.inf
        return self.waiting_time + self.network_latency + self.tail_time


def intra_cluster_latency(
    params: ModelParameters,
    cluster: int,
    *,
    arrival_rate: float | None = None,
    channel_rate: float | None = None,
) -> IntraClusterLatency:
    """Evaluate the ICN1 latency of cluster ``cluster`` at ``params.lambda_g``.

    ``arrival_rate`` (Eq. 5) and ``channel_rate`` (Eq. 10) default to the
    paper's uniform-traffic expressions; the traffic-pattern extensions in
    :mod:`repro.model.extensions` pass their own generalised rates instead.
    """
    spec = params.spec
    spec._check_cluster(cluster)
    height = spec.cluster_heights[cluster]
    timing = params.link_timing
    message_length = params.message_length

    probabilities = link_probability_vector(spec.m, height)
    if channel_rate is None:
        channel_rate = icn1_channel_rate(spec, cluster, params.lambda_g)
    if arrival_rate is None:
        arrival_rate = icn1_rate(spec, cluster, params.lambda_g)

    # Eq. 3: average the per-journey network latency over the 2j-link classes.
    # Python floats, not numpy scalars: far past the knee the products
    # overflow, and a Python float turns inf without a warning.
    network_latency = 0.0
    tail_time = 0.0
    for j, probability in enumerate(probabilities.tolist(), start=1):
        rates = intra_stage_rates(j, channel_rate)
        network_latency += probability * journey_latency(
            rates,
            message_length=message_length,
            t_cs=timing.t_cs,
            t_cn=timing.t_cn,
        )
        tail_time += probability * tail_drain_time(
            len(rates), t_cs=timing.t_cs, t_cn=timing.t_cn
        )

    utilisation = arrival_rate * network_latency
    try:
        waiting_time = source_queue_waiting_time(
            arrival_rate,
            network_latency,
            message_length * timing.t_cn,
            name=f"ICN1 source queue of cluster {cluster}",
            variance_approximation=params.variance_approximation,
        )
    except QueueSaturated:
        return IntraClusterLatency(
            cluster=cluster,
            waiting_time=math.inf,
            network_latency=network_latency,
            tail_time=tail_time,
            utilisation=utilisation,
            saturated=True,
        )
    return IntraClusterLatency(
        cluster=cluster,
        waiting_time=waiting_time,
        network_latency=network_latency,
        tail_time=tail_time,
        utilisation=utilisation,
        saturated=False,
    )
