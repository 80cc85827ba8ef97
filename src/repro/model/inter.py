"""Mean message latency of inter-cluster journeys (Eq. 26-34).

An external message from cluster ``i`` to cluster ``v`` crosses

* ``j`` links ascending in cluster ``i``'s ECN1 (``j ~ P_{j,n_i}``),
* the concentrator of cluster ``i``, the ICN2 (``2h`` links,
  ``h ~ P_{h,n_c}``) and the dispatcher of cluster ``v``,
* ``l`` links descending in cluster ``v``'s ECN1 (``l ~ P_{l,n_v}``).

Because the flow control is wormhole the two ECN1 legs and the ICN2 leg form
one blocking chain, so the network latency is obtained from the same
backward service-time recursion with a per-stage channel-rate vector that
switches from ``eta_E1`` to ``eta_I2`` and back (Eq. 28-29).  The source
queue is again M/G/1 (Eq. 30) and each concentrator/dispatcher buffer adds an
M/D/1-like waiting time (Eq. 33-34).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.model.parameters import ModelParameters
from repro.model.probabilities import link_probability_vector
from repro.model.queueing import (
    QueueSaturated,
    concentrator_waiting_time,
    source_queue_waiting_time,
)
from repro.model.service_time import (
    inter_stage_rates,
    journey_latency,
    tail_drain_time,
)
from repro.model.traffic import (
    ecn1_channel_rate,
    icn2_channel_rate,
    icn2_pair_rate,
    outgoing_probability,
)
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class PairLatency:
    """Latency components of the inter-cluster journey i -> v (one pair)."""

    source_cluster: int
    dest_cluster: int
    waiting_time: float        # W_E (Eq. 30)
    network_latency: float     # S_E (Eq. 26)
    tail_time: float           # R_E (Eq. 32)
    concentrator_waiting: float  # 2 * W_s (Eq. 33, concentrator + dispatcher)
    utilisation: float
    saturated: bool

    @property
    def total(self) -> float:
        """``W_E + S_E + R_E`` for this pair (without concentrators)."""
        if self.saturated:
            return math.inf
        return self.waiting_time + self.network_latency + self.tail_time


@dataclass(frozen=True)
class InterClusterLatency:
    """Inter-cluster latency seen from cluster ``i`` (averaged over partners)."""

    cluster: int
    #: mean source-queue waiting over destination clusters (part of Eq. 31)
    waiting_time: float
    #: mean network latency over destination clusters (Eq. 26 averaged)
    network_latency: float
    #: mean tail-drain time over destination clusters (Eq. 32 averaged)
    tail_time: float
    #: mean concentrator + dispatcher waiting, ``W_d^{(i)}`` (Eq. 34)
    concentrator_waiting: float
    #: highest source-queue utilisation over partner clusters (diagnostic)
    utilisation: float
    #: True when any partner journey saturated
    saturated: bool

    @property
    def network_total(self) -> float:
        """``T_{E1&I2}^{(i)}`` (Eq. 31): W + S + R averaged over partners."""
        if self.saturated:
            return math.inf
        return self.waiting_time + self.network_latency + self.tail_time

    @property
    def total(self) -> float:
        """Everything an external message experiences: Eq. 31 plus Eq. 34."""
        if self.saturated:
            return math.inf
        return self.network_total + self.concentrator_waiting


def pair_latency(
    params: ModelParameters,
    source: int,
    dest: int,
    *,
    lambda_source: float | None = None,
    eta_ecn1: float | None = None,
    lambda_icn2: float | None = None,
    eta_icn2: float | None = None,
) -> PairLatency:
    """Latency components of the inter-cluster journey ``source`` -> ``dest``.

    The rate arguments default to the paper's uniform-traffic values
    (Eq. 6-7, 11-13); the traffic-pattern extensions pass generalised rates.

    ``lambda_source`` is the arrival rate used for the M/G/1 source queue
    (Eq. 30).  The paper's text is ambiguous here: taken
    literally, Eq. 30 re-uses the pair-sum rate of Eq. 6, but that makes the
    model saturate far below the operating range the paper itself plots.  We
    therefore use the *source cluster's* external message rate
    ``N_i P_o^{(i)} lambda_g`` — the traffic that actually funnels through
    cluster ``i``'s ECN1 injection points — which reproduces the figures'
    saturation behaviour; the pair-sum rate of Eq. 6 still drives the channel
    rates exactly as Eq. 11 prescribes.
    """
    spec = params.spec
    spec._check_cluster(source)
    spec._check_cluster(dest)
    if source == dest:
        raise ValidationError("an inter-cluster journey needs two distinct clusters")

    height_i = spec.cluster_heights[source]
    height_v = spec.cluster_heights[dest]
    height_c = spec.icn2_height
    timing = params.link_timing
    message_length = params.message_length

    p_source = link_probability_vector(spec.m, height_i)
    p_dest = link_probability_vector(spec.m, height_v)
    p_icn2 = link_probability_vector(spec.m, height_c)

    if eta_ecn1 is None:
        eta_ecn1 = ecn1_channel_rate(spec, source, dest, params.lambda_g)
    if eta_icn2 is None:
        eta_icn2 = icn2_channel_rate(spec, source, dest, params.lambda_g)
    if lambda_icn2 is None:
        lambda_icn2 = icn2_pair_rate(spec, source, dest, params.lambda_g)
    if lambda_source is None:
        lambda_source = (
            spec.cluster_size(source)
            * outgoing_probability(spec, source)
            * params.lambda_g
        )

    # Eq. 26-29: average the journey latency over (j, l, h).
    network_latency = 0.0
    tail_time = 0.0
    for j in range(1, height_i + 1):
        for l in range(1, height_v + 1):  # noqa: E741 - l matches the paper's symbol
            for h in range(1, height_c + 1):
                probability = p_source[j - 1] * p_dest[l - 1] * p_icn2[h - 1]
                rates = inter_stage_rates(j, l, h, eta_ecn1, eta_icn2)
                network_latency += probability * journey_latency(
                    rates,
                    message_length=message_length,
                    t_cs=timing.t_cs,
                    t_cn=timing.t_cn,
                )
                tail_time += probability * tail_drain_time(
                    len(rates), t_cs=timing.t_cs, t_cn=timing.t_cn
                )

    utilisation = lambda_source * network_latency
    try:
        waiting_time = source_queue_waiting_time(
            lambda_source,
            network_latency,
            message_length * timing.t_cn,
            name=f"ECN1 source queue for clusters ({source},{dest})",
            variance_approximation=params.variance_approximation,
        )
        # Concentrator on the way out and dispatcher on the way in see the
        # same pair rate and the same deterministic M*t_cs service (Eq. 33).
        single_buffer = concentrator_waiting_time(
            lambda_icn2,
            message_length * timing.t_cs,
            name=f"concentrator for clusters ({source},{dest})",
        )
    except QueueSaturated:
        return PairLatency(
            source_cluster=source,
            dest_cluster=dest,
            waiting_time=math.inf,
            network_latency=network_latency,
            tail_time=tail_time,
            concentrator_waiting=math.inf,
            utilisation=utilisation,
            saturated=True,
        )
    return PairLatency(
        source_cluster=source,
        dest_cluster=dest,
        waiting_time=waiting_time,
        network_latency=network_latency,
        tail_time=tail_time,
        concentrator_waiting=2.0 * single_buffer,
        utilisation=utilisation,
        saturated=False,
    )


def inter_cluster_latency(params: ModelParameters, cluster: int) -> InterClusterLatency:
    """Inter-cluster latency seen from ``cluster`` (Eq. 31 and 34).

    All pair quantities depend on the two clusters only through their tree
    heights, so the average over destination clusters is computed per unique
    height with multiplicity weights instead of per cluster — the Table 1
    organisations have at most three distinct heights, which keeps a full
    sweep cheap even for C = 32.
    """
    spec = params.spec
    spec._check_cluster(cluster)
    heights = spec.cluster_heights
    partners = [v for v in range(spec.num_clusters) if v != cluster]
    if not partners:
        raise ValidationError("inter-cluster latency needs at least two clusters")

    multiplicity = Counter(heights[v] for v in partners)
    representative: Dict[int, int] = {}
    for v in partners:
        representative.setdefault(heights[v], v)

    sum_waiting = 0.0
    sum_network = 0.0
    sum_tail = 0.0
    sum_concentrator = 0.0
    worst_utilisation = 0.0
    saturated = False
    cache: Dict[Tuple[int, int], PairLatency] = {}
    for height_v, count in multiplicity.items():
        key = (heights[cluster], height_v)
        if key not in cache:
            cache[key] = pair_latency(params, cluster, representative[height_v])
        pair = cache[key]
        worst_utilisation = max(worst_utilisation, pair.utilisation)
        if pair.saturated:
            saturated = True
            continue
        sum_waiting += count * pair.waiting_time
        sum_network += count * pair.network_latency
        sum_tail += count * pair.tail_time
        sum_concentrator += count * pair.concentrator_waiting

    num_partners = len(partners)
    if saturated:
        return InterClusterLatency(
            cluster=cluster,
            waiting_time=math.inf,
            network_latency=sum_network / num_partners,
            tail_time=sum_tail / num_partners,
            concentrator_waiting=math.inf,
            utilisation=worst_utilisation,
            saturated=True,
        )
    return InterClusterLatency(
        cluster=cluster,
        waiting_time=sum_waiting / num_partners,
        network_latency=sum_network / num_partners,
        tail_time=sum_tail / num_partners,
        concentrator_waiting=sum_concentrator / num_partners,
        utilisation=worst_utilisation,
        saturated=False,
    )
