"""Channel state of the simulated networks.

Every directed channel of every network is a capacity-1 FIFO contention
point (assumption 4: input-buffered switches with a single flit buffer per
channel).  Two equivalent representations live here:

* :class:`ChannelPool` — the object-graph reference implementation: lazily
  created :class:`~repro.des.Resource` objects keyed by :class:`Channel`.
  It remains the readable specification of the channel semantics and the
  backend of the journey-construction helpers in :mod:`repro.sim.wormhole`.
* :class:`FlatChannels` — the compiled hot path: one flat array of held /
  queued / accounting state addressed by the dense integer channel ids of
  :mod:`repro.topology.compile`.  Acquisition and release follow exactly
  the ``Resource`` FIFO protocol (grant immediately when free, FIFO wake on
  release, busy time accumulated on release only) so a compiled run is
  event-for-event identical to an object-path run — it just stops paying a
  dataclass hash and a ``Resource``/``Request`` allocation per hop.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

from repro.des import Environment, Resource
from repro.des.events import Event
from repro.topology.fat_tree import Channel, ChannelKind
from repro.utils.units import LinkTiming


class ChannelPool:
    """Lazily created capacity-1 resources for the channels of one network."""

    def __init__(self, env: Environment, name: str, timing: LinkTiming) -> None:
        self.env = env
        self.name = name
        self.timing = timing
        self._resources: Dict[Channel, Resource] = {}
        #: total number of channel acquisitions (diagnostics)
        self.total_acquisitions = 0

    def resource(self, channel: Channel) -> Resource:
        """The resource guarding ``channel`` (created on first use)."""
        if channel not in self._resources:
            self._resources[channel] = Resource(
                self.env, capacity=1, name=f"{self.name}:{channel.kind.value}"
            )
        return self._resources[channel]

    def header_time(self, channel: Channel) -> float:
        """Per-flit transfer time of the channel (Eq. 14 vs 15)."""
        if channel.kind in (ChannelKind.INJECTION, ChannelKind.EJECTION):
            return self.timing.t_cn
        return self.timing.t_cs

    def hops_for(self, route) -> Iterator[Tuple[Resource, float]]:
        """(resource, header time) pairs for every channel of a route."""
        for channel in route:
            yield self.resource(channel), self.header_time(channel)

    # ------------------------------------------------------------ diagnostics
    @property
    def touched_channels(self) -> int:
        """Number of channels that have been used at least once."""
        return len(self._resources)

    def busy_channels(self) -> int:
        """Number of channels currently held by a message."""
        return sum(1 for resource in self._resources.values() if resource.count > 0)

    def queued_requests(self) -> int:
        """Number of requests currently waiting across all channels."""
        return sum(resource.queue_length for resource in self._resources.values())

    def utilisation(self, elapsed: float) -> Tuple[float, float]:
        """(mean, max) fraction of ``elapsed`` the pool's channels were held.

        Only channels that were actually used enter the mean, so an idle
        corner of a large tree does not hide a saturated hot path; the max is
        the utilisation of the single busiest channel.
        """
        if elapsed <= 0 or not self._resources:
            return (0.0, 0.0)
        fractions = [
            min(resource.busy_time / elapsed, 1.0)
            for resource in self._resources.values()
        ]
        return (sum(fractions) / len(fractions), max(fractions))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChannelPool({self.name!r}, touched={self.touched_channels})"


class ChannelGrant(Event):
    """The slotted event a :class:`FlatChannels` acquisition resolves to.

    Mirrors :class:`~repro.des.resources.Request` in scheduling behaviour
    (triggered immediately when the channel is free, woken FIFO otherwise)
    without the per-request bookkeeping attributes the compiled path keeps
    in flat arrays instead.
    """

    __slots__ = ()


class FlatChannels:
    """Array-backed capacity-1 FIFO channels addressed by dense slot id.

    One instance covers *every* contention point of a compiled system —
    all tree channels plus the concentrator/dispatcher pseudo-channels —
    so the wormhole hot path is integer indexing into five flat arrays.

    The protocol matches :class:`~repro.des.Resource` with capacity 1:

    * :meth:`acquire` returns an event; it is already triggered (scheduled
      at the current time) when the slot was free, and is parked in the
      slot's FIFO queue otherwise;
    * :meth:`release` accumulates the held time into ``busy_time`` and
      wakes the queue head, granting at the release timestamp — the same
      event push the object path performs inside ``Request.cancel``.
    """

    __slots__ = (
        "env",
        "num_slots",
        "holder",
        "granted_at",
        "busy_time",
        "total_grants",
        "queues",
        "_schedule",
    )

    def __init__(self, env: Environment, num_slots: int) -> None:
        self.env = env
        self.num_slots = num_slots
        #: pre-bound scheduler entry point (hot path: one grant per hop)
        self._schedule = env.schedule
        #: grant currently holding each slot (None when free)
        self.holder: List[Optional[ChannelGrant]] = [None] * num_slots
        #: timestamp the current holder acquired the slot
        self.granted_at: List[float] = [0.0] * num_slots
        #: accumulated held time (updated on release, like ``Resource``)
        self.busy_time: List[float] = [0.0] * num_slots
        #: total grants per slot (relay-utilisation filter, diagnostics)
        self.total_grants: List[int] = [0] * num_slots
        #: FIFO wait queues, created lazily on first contention
        self.queues: List[Optional[deque]] = [None] * num_slots

    def acquire(self, slot: int) -> ChannelGrant:
        """Claim ``slot``; the returned event fires once the claim holds."""
        grant = ChannelGrant(self.env)
        if self.holder[slot] is None:
            self.holder[slot] = grant
            self.granted_at[slot] = self.env._now
            self.total_grants[slot] += 1
            grant._ok = True
            grant._value = None
            self._schedule(grant)
        else:
            queue = self.queues[slot]
            if queue is None:
                queue = self.queues[slot] = deque()
            queue.append(grant)
        return grant

    def release(self, slot: int, grant: Event) -> None:
        """Release ``slot`` if ``grant`` holds it; withdraw it otherwise."""
        if self.holder[slot] is grant:
            now = self.env._now
            self.busy_time[slot] += now - self.granted_at[slot]
            queue = self.queues[slot]
            if queue:
                successor = queue.popleft()
                self.holder[slot] = successor
                self.granted_at[slot] = now
                self.total_grants[slot] += 1
                successor._ok = True
                successor._value = None
                self._schedule(successor)
            else:
                self.holder[slot] = None
        else:
            queue = self.queues[slot]
            if queue is not None:
                try:
                    queue.remove(grant)
                except ValueError:
                    # Withdrawing twice is a no-op, as for ``Request.cancel``.
                    pass

    # ------------------------------------------------------------ diagnostics
    def busy_slots(self) -> int:
        """Number of slots currently held (diagnostic aid)."""
        return sum(1 for holder in self.holder if holder is not None)

    def queued_requests(self) -> int:
        """Number of grants currently waiting across all slots."""
        return sum(len(queue) for queue in self.queues if queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatChannels(slots={self.num_slots}, busy={self.busy_slots()})"
