"""The simulation :class:`Environment`: clock, event queue and run loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Generator, List, Optional, Tuple

from repro.des.events import (
    Environment_NORMAL,
    Environment_URGENT,
    Event,
    Process,
    Timeout,
)
from repro.des.exceptions import SimulationError, StopSimulation


class Environment:
    """Execution environment of a discrete-event simulation.

    The environment keeps the current simulation time (:attr:`now`), the
    pending event queue and offers factory helpers for the common event
    types.  Time is a float in the paper's abstract "time units".

    The queue is a flat binary heap of ``(time, priority, eid, event)``
    entries; ``eid`` is allocated in scheduling order, so events at equal
    time and priority fire first-in first-out.

    Parameters
    ----------
    initial_time:
        Simulation clock at creation.
    """

    #: scheduling priority constants (smaller fires first at equal times)
    URGENT = Environment_URGENT
    NORMAL = Environment_NORMAL

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._eid = count()
        self._queue: List[Tuple[float, int, int, Event]] = []
        #: Events popped and dispatched over the environment's lifetime.
        #: Fuels the benchmark's events-per-second figure; costs one local
        #: increment per event in the run loop.
        self.events_processed = 0

    # -- clock and queue ----------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule(self, event: Event, priority: int = Environment_NORMAL, delay: float = 0.0) -> None:
        """Insert a triggered event into the queue ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start ``generator`` as a new process."""
        return Process(self, generator)

    # -- run loop -------------------------------------------------------------
    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` runs until the event queue is exhausted; a number runs
            until that simulation time (events scheduled *at* the stop time
            with :data:`~Environment.NORMAL` priority are left pending; only
            URGENT events enqueued at the stop time before ``run`` was called
            still fire); an :class:`Event` runs until that event is processed
            and returns its value.
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                return stop_event.value
            stop_event.callbacks.append(self._stop_callback)
        else:
            at = float(until)
            if at < self._now:
                raise SimulationError(
                    f"until={at} lies in the past (now={self._now})"
                )
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            stop_event.callbacks.append(self._stop_callback)
            heappush(self._queue, (at, Environment_URGENT, next(self._eid), stop_event))

        try:
            self._run_loop()
        except StopSimulation as stop:
            return stop.value

        # Numeric `until` always stops through its scheduled stop event, so
        # reaching this point means `until` was None or an Event.
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) finished but the event never triggered"
                )
            return stop_event.value
        return None

    def _run_loop(self) -> None:
        """Drain the queue (the body of :meth:`run`).

        Each popped event advances the clock to its time and runs its
        callbacks; an event popped a second time (a shared condition member)
        has no callbacks left and is skipped.  A failed event that nobody
        defused is re-raised out of the loop.
        """
        processed = 0
        queue = self._queue
        try:
            while True:
                try:
                    self._now, _, _, event = heappop(queue)
                except IndexError:
                    return
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks is None:
                    continue
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            # Accumulated once per run, not per event: the counter lives on
            # the instance but the hot loop only touches the local.
            self.events_processed += processed

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        raise event._value
