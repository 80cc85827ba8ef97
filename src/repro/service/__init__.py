"""The campaign service: warm workers behind an async front-end.

:mod:`repro.service.server` holds :class:`CampaignServer`, a stdlib-asyncio
HTTP front-end (CLI: ``repro serve``) that accepts campaign plans as JSON,
runs every campaign on one shared, spawn-started
:class:`~repro.campaign.WorkerPool`, and streams the executor's events back
as server-sent events.  The pool's workers compile their own topology and
route tables once and keep warm engines between campaigns (the serving
process compiles nothing); warm requests are answered straight from the
result store without touching a worker.
"""

from repro.service.server import CampaignServer, serve

__all__ = ["CampaignServer", "serve"]
