"""Per-stage service-time recursion under wormhole blocking (Eq. 16-18, 28-29).

A wormhole message that has to travel ``K`` channel stages beyond its
injection channel can be blocked at every stage: with single-flit buffers a
blocked header stalls the whole worm, so the *service time* of a channel at
stage ``k`` is the bare transfer time of the message plus the time spent
waiting to acquire the channels of all later stages.  Working backwards from
the destination (which, by assumption 6, always accepts messages):

.. math::

    \\bar S_{K-1} &= M\\,t_{cn} \\\\
    \\bar S_k &= M\\,t_{cs} + \\sum_{s=k+1}^{K-1} \\bar W_s
        \\qquad (k < K-1) \\\\
    \\bar W_s &= \\tfrac12 P_{B_s} \\bar S_s
        = \\tfrac12 \\eta_s \\bar S_s^2

where ``eta_s`` is the message arrival rate at a stage-``s`` channel (the
birth-death/Markov-chain argument of the paper gives the blocking probability
``P_B = eta * S``).  The network latency of the whole journey is the service
time of stage 0.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.utils.validation import (
    ValidationError,
    check_non_negative,
    check_positive,
    check_positive_int,
)


def stage_waiting_time(channel_rate: float, service_time: float) -> float:
    """``W_k``: mean wait to acquire one channel (Eq. 16-17).

    The blocking probability of the channel is ``P_B = eta * S`` (Eq. 17,
    from the birth-death chain in the steady state) and a blocked message
    waits half the residual service time on average, giving
    ``W = 0.5 * eta * S^2``.
    """
    check_non_negative(channel_rate, "channel_rate")
    check_non_negative(service_time, "service_time")
    return 0.5 * channel_rate * service_time * service_time


def stage_service_times(
    channel_rates: Sequence[float],
    *,
    message_length: int,
    t_cs: float,
    t_cn: float,
) -> Tuple[List[float], List[float]]:
    """Solve the backward recursion for one journey.

    Parameters
    ----------
    channel_rates:
        ``eta_k`` for stages ``k = 0 .. K-1`` in travel order (the injection
        channel is *not* a stage; the final entry is the ejection channel
        into the destination node).
    message_length:
        ``M`` in flits.
    t_cs / t_cn:
        Switch-switch / node-switch per-flit channel times (Eq. 14-15).

    Returns
    -------
    (service_times, waiting_times):
        ``service_times[k]`` is ``S_k`` and ``waiting_times[k]`` is ``W_k``;
        ``service_times[0]`` is the network latency of the journey.

    Deep overload can overflow a wait ``W = ½ηS²`` to inf.  Every stage
    upstream of it then has an infinite service time and wait: the journey
    is saturated and its latency is inf, never an error.
    """
    check_positive_int(message_length, "message_length")
    check_positive(t_cs, "t_cs")
    check_positive(t_cn, "t_cn")
    stages = len(channel_rates)
    if stages == 0:
        raise ValidationError("a journey needs at least one stage")
    service: List[float] = [0.0] * stages
    waiting: List[float] = [0.0] * stages
    downstream_wait = 0.0
    for stage in range(stages - 1, -1, -1):
        rate = check_non_negative(channel_rates[stage], f"channel_rates[{stage}]")
        if stage == stages - 1:
            service[stage] = message_length * t_cn
        else:
            service[stage] = message_length * t_cs + downstream_wait
        if math.isinf(service[stage]):
            waiting[stage] = math.inf
        else:
            waiting[stage] = stage_waiting_time(rate, service[stage])
        downstream_wait += waiting[stage]
    return service, waiting


def journey_latency(
    channel_rates: Sequence[float],
    *,
    message_length: int,
    t_cs: float,
    t_cn: float,
) -> float:
    """Network latency (``S_0``) of one journey with the given stage rates."""
    service, _ = stage_service_times(
        channel_rates, message_length=message_length, t_cs=t_cs, t_cn=t_cn
    )
    return service[0]


def intra_stage_rates(j: int, channel_rate: float) -> List[float]:
    """Stage rate vector of a 2j-link intra-cluster journey.

    The journey has ``K = 2j - 1`` stages beyond the injection channel, all
    inside the same network, so every stage sees the same channel rate
    ``eta_I1`` (Eq. 10).
    """
    check_positive_int(j, "j")
    check_non_negative(channel_rate, "channel_rate")
    return [channel_rate] * (2 * j - 1)


def inter_stage_rates(
    j: int, l: int, h: int, ecn1_rate: float, icn2_rate: float
) -> List[float]:
    """Stage rate vector of an inter-cluster journey (Eq. 29).

    The message crosses ``j`` links in the source cluster's ECN1 (of which
    the first is the injection channel, leaving ``j - 1`` stages), ``2h``
    links in the ICN2 and ``l`` links in the destination cluster's ECN1, so
    ``K = j + 2h + l - 1``.  ECN1 stages see ``eta_E1`` and ICN2 stages see
    ``eta_I2``.
    """
    check_positive_int(j, "j")
    check_positive_int(l, "l")
    check_positive_int(h, "h")
    check_non_negative(ecn1_rate, "ecn1_rate")
    check_non_negative(icn2_rate, "icn2_rate")
    return [ecn1_rate] * (j - 1) + [icn2_rate] * (2 * h) + [ecn1_rate] * l


def tail_drain_time(num_stages: int, *, t_cs: float, t_cn: float) -> float:
    """Time for the tail flit to drain through ``num_stages`` stages (Eq. 24/32).

    Once the header has been delivered the remaining pipeline empties at one
    channel per stage: ``(K - 1)`` switch-switch channels plus the final
    node-switch channel.
    """
    check_positive_int(num_stages, "num_stages")
    check_positive(t_cs, "t_cs")
    check_positive(t_cn, "t_cn")
    return (num_stages - 1) * t_cs + t_cn
