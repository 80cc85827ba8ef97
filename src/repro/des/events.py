"""Event and process primitives of the DES kernel.

An :class:`Event` is a one-shot object that can *succeed* or *fail* with a
value; callbacks registered on the event run when the environment processes
it.  A :class:`Process` wraps a generator: every value the generator yields
must be an event, and the process resumes when that event is processed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

from repro.des.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.core import Environment


PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    Events move through three stages: *untriggered* (just created),
    *triggered* (scheduled in the event queue with a value) and *processed*
    (callbacks have run).  ``succeed``/``fail`` trigger the event.

    Events are slotted: a simulation run allocates one event per channel
    grant and per header-flit timeout, so the per-instance ``__dict__`` is
    dropped to keep the hot path allocation-light.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and sits in (or has left) the queue."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded or failed with."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every process waiting on this event.
        If nothing waits on a failed event the environment re-raises it at the
        end of the step (unless :meth:`defused` was called).
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defused(self) -> None:
        """Mark a failed event as handled so the kernel does not re-raise it."""
        self._defused = True

    # -- composition ------------------------------------------------------
    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=Environment_URGENT)


# Priority constants shared with the core module (lower value = earlier).
Environment_URGENT = 0
Environment_NORMAL = 1


class Process(Event):
    """A running process.

    A process is itself an event: it succeeds with the generator's return
    value (or fails with its unhandled exception), so processes can wait for
    each other simply by yielding them.
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    # -- kernel machinery ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env.schedule(self)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self._ok = False
                self._value = exc
                self.env.schedule(self)
                return

            if not isinstance(next_event, Event):
                self._ok = False
                self._value = SimulationError(f"process yielded a non-event: {next_event!r}")
                self.env.schedule(self)
                return

            if next_event.callbacks is not None:
                # Event not yet processed: register ourselves and wait.
                next_event.callbacks.append(self._resume)
                return
            # Event already processed: continue immediately with its value.
            event = next_event


class ConditionValue:
    """Ordered mapping of the events that triggered an :class:`AnyOf` to their values."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]) -> None:
        self.events: List[Event] = list(events)

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event._value

    def __len__(self) -> int:
        return len(self.events)


class AnyOf(Event):
    """Succeeds as soon as *any* component event has succeeded.

    If a component fails before any succeeds, it fails with that
    component's exception; an empty ``AnyOf`` succeeds at once.  ``a | b``
    builds one, and a simulation run waits on ``done | guard``.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self._events:
            self.succeed(ConditionValue([]))
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(ConditionValue([e for e in self._events if e.triggered]))
