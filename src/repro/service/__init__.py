"""The campaign service: warm workers behind an async front-end.

Two layers, separable on purpose:

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
"""

from repro.service.daemon import PersistentPoolBackend, WorkerDaemon
from repro.service.server import CampaignServer, serve

__all__ = [
    "CampaignServer",
    "PersistentPoolBackend",
    "WorkerDaemon",
    "serve",
]
