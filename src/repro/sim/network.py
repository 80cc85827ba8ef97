"""Channel state of the simulated networks.

Every directed channel of every network is a capacity-1 FIFO contention
point (assumption 4: input-buffered switches with a single flit buffer per
channel).  :class:`FlatChannels` holds that state for a whole compiled
system: one flat array of held / queued / accounting state addressed by the
dense integer channel ids of :mod:`repro.topology.compile`.  A free channel
is granted at once, a busy one wakes its waiters first-in first-out on
release, and busy time accumulates on release only.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.des import Environment
from repro.des.events import Event


class ChannelGrant(Event):
    """The slotted event a :class:`FlatChannels` acquisition resolves to.

    It is triggered immediately when the channel is free and woken FIFO
    otherwise; the grant bookkeeping lives in the flat arrays of
    :class:`FlatChannels`, not on the event.
    """

    __slots__ = ()


class FlatChannels:
    """Array-backed capacity-1 FIFO channels addressed by dense slot id.

    One instance covers *every* contention point of a compiled system —
    all tree channels plus the concentrator/dispatcher pseudo-channels —
    so the wormhole hot path is integer indexing into five flat arrays.

    Its protocol:

    * :meth:`acquire` returns an event; it is already triggered (scheduled
      at the current time) when the slot was free, and is parked in the
      slot's FIFO queue otherwise;
    * :meth:`release` accumulates the held time into ``busy_time`` and
      wakes the queue head, granting it at the release timestamp; called
      with a grant that is still queued, it withdraws that grant instead.
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
        #: accumulated held time (updated on release only)
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
                    # Withdrawing twice is a no-op.
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
