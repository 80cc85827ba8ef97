"""A small generator-based discrete-event simulation (DES) kernel.

The validation study in the paper relies on a discrete-event wormhole
simulator.  No DES library is available offline, so this subpackage provides
a self-contained kernel in the spirit of SimPy, as much of it as the
simulator's generator specification (:mod:`repro.sim.wormhole`) uses:

* :class:`~repro.des.core.Environment` drives simulated time and the event
  queue;
* processes are plain Python generators that ``yield`` events
  (:class:`~repro.des.events.Timeout`, other processes, and the
  :class:`~repro.des.events.AnyOf` that ``a | b`` builds; a simulation run
  waits on ``done | guard``).

Channel contention (:class:`~repro.sim.network.FlatChannels`) and the
run's statistics (:mod:`repro.sim.statistics`) live with the simulator,
not here.

The event queue is a plain binary heap keyed on ``(time, priority, eid)``.
The kernel is deliberately deterministic: events scheduled for the same time
and priority fire in FIFO order of scheduling, which makes simulation
results reproducible for a fixed seed.
"""

from repro.des.exceptions import SimulationError, StopSimulation
from repro.des.events import Event, Timeout, Process, AnyOf, ConditionValue
from repro.des.core import Environment

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "ConditionValue",
    "SimulationError",
    "StopSimulation",
]
