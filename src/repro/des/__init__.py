"""A small generator-based discrete-event simulation (DES) kernel.

The validation study in the paper relies on a discrete-event wormhole
simulator.  No DES library is available offline, so this subpackage provides
a self-contained kernel in the spirit of SimPy:

* :class:`~repro.des.core.Environment` drives simulated time and the event
  queue;
* processes are plain Python generators that ``yield`` events
  (:class:`~repro.des.events.Timeout`, resource requests, other processes);
* :class:`~repro.des.resources.Resource`, :class:`~repro.des.resources.PriorityResource`
  and :class:`~repro.des.resources.Store` model contention points (channels,
  buffers, queues);
* :mod:`repro.des.monitor` provides time-weighted and tally statistics.

The event queue is a plain binary heap keyed on ``(time, priority, eid)``.
The kernel is deliberately deterministic: events scheduled for the same time
and priority fire in FIFO order of scheduling, which makes simulation
results reproducible for a fixed seed.
"""

from repro.des.exceptions import Interrupt, QueueEmpty, SimulationError, StopSimulation
from repro.des.events import Event, Timeout, Process, AllOf, AnyOf, ConditionValue
from repro.des.core import Environment
from repro.des.resources import (
    Resource,
    PriorityResource,
    Request,
    PriorityRequest,
    Release,
    Store,
    StorePut,
    StoreGet,
)
from repro.des.monitor import TimeWeightedValue, Tally, Counter

__all__ = [
    "Environment",
    "Event",
    "QueueEmpty",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "Resource",
    "PriorityResource",
    "Request",
    "PriorityRequest",
    "Release",
    "Store",
    "StorePut",
    "StoreGet",
    "TimeWeightedValue",
    "Tally",
    "Counter",
]
