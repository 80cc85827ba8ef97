"""Flit-level wormhole simulator of the multi-cluster system (Section 4).

The paper validates its analytical model against a discrete-event simulator
that "uses the same assumptions as the analysis": Poisson sources, uniform
destinations, wormhole flow control with single-flit buffers, infinite
source queues, deterministic NCA routing, 100 000 measured messages with a
10 000-message warm-up and a drain phase.  This subpackage is that simulator,
built on the :mod:`repro.des` kernel:

* every directed channel of every ICN1/ECN1/ICN2 is a capacity-1 FIFO
  contention point;
* a message is a process that acquires the channels of its deterministic
  route hop by hop (wormhole: everything it holds stays held until its tail
  is delivered), with the concentrator and dispatcher appearing as additional
  single-server hops on inter-cluster journeys;
* warm-up, measurement and drain phases follow the paper's methodology, and
  latency statistics come with confidence intervals.

Two kernels run that life cycle, bit-identical to each other: the
generator specification (:func:`~repro.sim.wormhole.compiled_transfer` on
:class:`~repro.des.Environment`, the only pure-Python path) and the default
vectorized kernel of :mod:`repro.sim.vector`, whose message pre-draw and
event loop are C functions over flat stream-state, route and message
arrays (``event_core.c``, compiled on the first simulation against numpy's
``libnpyrandom.a`` and cached by :mod:`repro.sim.native`);
``REPRO_SIM_KERNEL`` selects between them.

See DESIGN.md for the two documented deviations from a fully physical
simulator (channel-release granularity and the distributed-concentrator
realisation of the ECN1 exit points).
"""

from repro.sim.config import SimulationConfig
from repro.sim.message import Message
from repro.sim.network import ChannelGrant, FlatChannels
from repro.sim.statistics import ClusterStatistics, SimulationResult
from repro.sim.simulator import MultiClusterSimulator

__all__ = [
    "SimulationConfig",
    "Message",
    "ChannelGrant",
    "FlatChannels",
    "ClusterStatistics",
    "SimulationResult",
    "MultiClusterSimulator",
]
