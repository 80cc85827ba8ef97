"""Reproduction of "Analysis of Interconnection Networks in Heterogeneous
Multi-Cluster Systems" (Javadi, Abawajy, Akbari, Nahavandi — ICPP Workshops
2006).

The package provides, as importable building blocks:

* the **analytical latency model** that is the paper's contribution
  (:class:`repro.model.MultiClusterLatencyModel` and friends),
* every **substrate** it stands on — the m-port n-tree topology
  (:mod:`repro.topology`), deterministic Up*/Down* routing
  (:mod:`repro.routing`), a discrete-event kernel (:mod:`repro.des`) and the
  flit-level wormhole **simulator** used for validation (:mod:`repro.sim`),
* **workloads** (:mod:`repro.workloads`) and the **experiment harness**
  (:mod:`repro.experiments`) that regenerates Table 1 and Figures 3-4,
* the **unified scenario/engine API** (:mod:`repro.api`): declarative
  :class:`~repro.api.Scenario` objects (JSON round-trippable), pluggable
  analysis/simulation engines and a parallel :func:`repro.api.run`,
* the **Campaign API** (:mod:`repro.campaign`): multi-scenario execution
  plans flattened into one shared-pool task queue, streamed as they finish,
  made fault-tolerant by a :class:`~repro.campaign.RetryPolicy` (crashed or
  hung workers are re-queued, exhausted tasks surface as structured
  failures) and backed by a content-addressed result store
  (:mod:`repro.store`, pluggable directory / single-file SQLite backends)
  so re-runs only simulate what changed,
* the **campaign service** (:mod:`repro.service`): a persistent warm
  worker daemon (each worker keeps its compiled tables and engines) behind
  a stdlib asyncio HTTP front-end (``repro-multicluster serve``) that
  streams campaign progress to any number of concurrent clients as
  server-sent events,
* a command line, ``repro-multicluster`` (:mod:`repro.cli`).

Quick start — one declarative call runs the model and the simulator over the
same scenario (``parallel=True`` spreads simulation points over the cores)::

    from repro import api

    result = api.run(api.scenario("fig3", points=8),
                     engines=("model", "sim"), parallel=True)
    for record in result.series("sim"):
        print(record.lambda_g, record.latency, record.metadata["seed"])

or, at the building-block level::

    from repro import MessageSpec, MultiClusterLatencyModel, table1_system

    model = MultiClusterLatencyModel(table1_system(544), MessageSpec(32, 256))
    print(model.mean_latency(2e-4))
"""

from repro import api
from repro.api import RunRecord, RunSet, Scenario, run, scenario
from repro.campaign import (
    Campaign,
    CampaignEntry,
    CampaignExecutionError,
    CampaignExecutor,
    CampaignResult,
    RetryPolicy,
    run_campaign,
)
from repro.experiments.configs import table1_system
from repro.model.latency import MultiClusterLatencyModel
from repro.model.parameters import MessageSpec, ModelParameters, TimingParameters
from repro.sim.config import SimulationConfig
from repro.sim.simulator import MultiClusterSimulator
from repro.store import ResultStore
from repro.topology.multicluster import ClusterSpec, MultiClusterSpec, MultiClusterSystem

__version__ = "1.7.0"

__all__ = [
    "__version__",
    "api",
    "Campaign",
    "CampaignEntry",
    "CampaignExecutionError",
    "CampaignExecutor",
    "CampaignResult",
    "ClusterSpec",
    "MessageSpec",
    "ModelParameters",
    "MultiClusterLatencyModel",
    "MultiClusterSimulator",
    "MultiClusterSpec",
    "MultiClusterSystem",
    "ResultStore",
    "RetryPolicy",
    "RunRecord",
    "RunSet",
    "Scenario",
    "SimulationConfig",
    "TimingParameters",
    "run",
    "run_campaign",
    "scenario",
    "table1_system",
]
