"""Wormhole message transfer: the transfer process of one message.

A wormhole message advances header-first: at every hop it must acquire the
hop's channel before the header can cross it, and with single-flit buffers
(assumption 4) every channel it has already crossed stays occupied by its
body flits until the tail has drained.  The simulator realises this as a
process that

1. acquires the hop channels strictly in route order (waiting in FIFO order
   whenever a channel is busy — this is where all contention arises),
2. spends the per-flit header time on each hop,
3. after the header reaches the destination, spends the serialisation time of
   the remaining ``M - 1`` flits at the slowest hop of the path,
4. releases everything.

Holding every acquired channel until the tail is delivered is slightly
conservative: a real worm frees its earliest channels a few flit-times
sooner.  The analytical model makes the same simplification — its service
time of a channel (Eq. 16-18, :mod:`repro.model.service_time`) is the
whole message's transfer time plus the waits at every later stage — so
simulation and analysis charge each channel alike.

Inter-cluster journeys chain three networks: the ascending leg in the source
cluster's ECN1, the ICN2 crossing between the two concentrators, and the
descending leg in the destination cluster's ECN1, with the concentrator and
dispatcher units appearing as single-server hops between the legs.  The
route tables of :mod:`repro.routing.compile` lay each journey out as one
tuple of global channel ids.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.des import Environment
from repro.des.events import Timeout
from repro.sim.message import Message
from repro.sim.network import FlatChannels
from repro.utils.validation import ValidationError


def draw_peer(rng: np.random.Generator, num_nodes: int, excluded: int) -> int:
    """A uniformly random node index different from ``excluded``."""
    if num_nodes < 2:
        raise ValidationError("drawing a peer needs at least two nodes")
    draw = int(rng.integers(0, num_nodes - 1))
    if draw >= excluded:
        draw += 1
    return draw


def compiled_transfer(
    env: Environment,
    message: Message,
    slots: Tuple[int, ...],
    channels: FlatChannels,
    header_times: Sequence[float],
    tail_time: float,
    on_delivered: Callable[[Message], None] | None = None,
):
    """The DES process moving one message along its journey (generator).

    ``slots`` is the precompiled global channel-id tuple of the journey
    (route tables of :mod:`repro.routing.compile`), ``header_times`` the
    per-slot flit time table of the compiled system and ``tail_time`` the
    precomputed body serialisation ``(M - 1) * max(header times)``.

    The yielded event sequence is one grant and one header timeout per
    hop, then one tail timeout (none for a one-flit message), with the
    releases in acquisition order on exit.
    """
    if not slots:
        raise ValidationError("a journey needs at least one hop")
    held: List[Tuple[int, object]] = []
    acquire = channels.acquire
    hold = held.append
    try:
        first = True
        for slot in slots:
            grant = acquire(slot)
            yield grant
            hold((slot, grant))
            if first:
                # The wait for the first (injection) slot is the source-queue
                # delay of the analytical model.
                message.injected_at = env.now
                first = False
            yield Timeout(env, header_times[slot])
        if tail_time > 0.0:
            yield Timeout(env, tail_time)
        message.delivered_at = env.now
        if on_delivered is not None:
            on_delivered(message)
    finally:
        release = channels.release
        for slot, grant in held:
            release(slot, grant)
