"""A small generator-based discrete-event simulation (DES) kernel.

The validation study in the paper relies on a discrete-event wormhole
simulator.  No DES library is available offline, so this subpackage provides
a self-contained kernel in the spirit of SimPy, as much of it as the
simulator's generator specification (:mod:`repro.sim.wormhole`) uses:

* :class:`~repro.des.core.Environment` drives simulated time and the event
  queue;
* processes are plain Python generators that ``yield`` events
  (:class:`~repro.des.events.Timeout`, other processes, and
  :class:`~repro.des.events.AnyOf` / :class:`~repro.des.events.AllOf`
  conditions; a simulation run waits on ``done | guard``);
* :class:`~repro.des.monitor.Tally` keeps the sample statistics of the
  measured latencies.

Channel contention lives with the simulator
(:class:`~repro.sim.network.FlatChannels`), not here.

The event queue is a plain binary heap keyed on ``(time, priority, eid)``.
The kernel is deliberately deterministic: events scheduled for the same time
and priority fire in FIFO order of scheduling, which makes simulation
results reproducible for a fixed seed.
"""

from repro.des.exceptions import SimulationError, StopSimulation
from repro.des.events import Event, Timeout, Process, AllOf, AnyOf, ConditionValue
from repro.des.core import Environment
from repro.des.monitor import Tally

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "SimulationError",
    "StopSimulation",
    "Tally",
]
