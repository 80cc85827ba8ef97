"""Traffic workloads for the simulator (and for model extensions).

The paper's validation study uses Poisson message generation with uniformly
distributed destinations (assumptions 1-2); its conclusion names non-uniform
traffic as future work.  This subpackage provides both, plus the classic
adversarial patterns used in interconnection-network studies:

* :class:`UniformTraffic` — assumption 2 of the paper;
* :class:`HotspotTraffic` — a fraction of the traffic targets one hot
  cluster (or one hot node);
* :class:`ClusterLocalTraffic` — a tunable fraction of the traffic stays
  inside the source cluster (models locality-aware job placement);
* :class:`PermutationTraffic` — every node sends to a fixed partner node;
* :class:`PoissonArrivals` / :class:`DeterministicArrivals` — the message
  generation processes.
"""

from repro.workloads.base import ArrivalProcess, DestinationSample, TrafficPattern
from repro.workloads.poisson import DeterministicArrivals, PoissonArrivals
from repro.workloads.uniform import UniformTraffic
from repro.workloads.hotspot import HotspotTraffic
from repro.workloads.local import ClusterLocalTraffic
from repro.workloads.permutation import PermutationTraffic

__all__ = [
    "ArrivalProcess",
    "DestinationSample",
    "TrafficPattern",
    "PoissonArrivals",
    "DeterministicArrivals",
    "UniformTraffic",
    "HotspotTraffic",
    "ClusterLocalTraffic",
    "PermutationTraffic",
]
