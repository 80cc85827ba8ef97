"""The campaign service: warm workers, an async front-end, and a cluster.

Three layers, separable on purpose:

* :mod:`repro.service.daemon` — :class:`WorkerDaemon`, a process pool that
  survives across campaigns, whose workers compile their own topology and
  route tables once and keep warm engines between tasks (the serving
  process compiles nothing), and :class:`PersistentPoolBackend`, the
  :class:`~repro.campaign.WorkerBackend` adapter that lets any
  :class:`~repro.campaign.CampaignExecutor` run on it unchanged.
* :mod:`repro.service.server` — :class:`CampaignServer`, a stdlib-asyncio
  HTTP front-end (CLI: ``repro serve``) that accepts campaign plans as
  JSON, multiplexes concurrent clients onto one shared daemon, and streams
  the executor's events back as server-sent events; warm requests are
  answered straight from the result store without touching a worker.
* :mod:`repro.service.cluster` — distributed campaigns: a coordinator
  (:class:`ClusterBackend`, another ``WorkerBackend`` adapter) shards one
  plan's task queue over remote :class:`RunnerServer` processes (CLI:
  ``repro runner``) speaking length-prefixed JSON over plain TCP, with
  results merging back through the content-addressed store and lost
  runners recovered by the ordinary retry machinery.
"""

from repro.service.cluster import (
    ClusterBackend,
    LocalRunnerFleet,
    RunnerClient,
    RunnerLost,
    RunnerServer,
    parse_runner_spec,
)
from repro.service.daemon import PersistentPoolBackend, WorkerDaemon
from repro.service.server import CampaignServer, serve

__all__ = [
    "CampaignServer",
    "ClusterBackend",
    "LocalRunnerFleet",
    "PersistentPoolBackend",
    "RunnerClient",
    "RunnerLost",
    "RunnerServer",
    "WorkerDaemon",
    "parse_runner_spec",
    "serve",
]
