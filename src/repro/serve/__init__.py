"""Simulation-as-a-service: the ``repro-serve`` session engine.

Batch reproduction (``repro-experiments``) pays interpreter start-up
and the experiment imports per invocation.  This package keeps a daemon
resident instead: clients open *sessions* over a line-oriented
JSON protocol (:mod:`repro.serve.protocol`), submit named experiments
or raw request streams, and stream back results, telemetry, and run
manifests stamped with the session identity.

Layering (everything reuses the batch execution core in
:mod:`repro.experiments.exec`, so served results are bit-identical to
batch runs):

* :mod:`repro.serve.pool` — persistent, watchdogged worker processes
  that skip interpreter start-up and imports per job; every job builds
  its targets fresh through the registry.
* :mod:`repro.serve.scheduler` — packs session jobs onto the bounded
  pool with fair round-robin per-tenant queueing, per-tenant quotas,
  and backpressure (bounded queues, 429-style rejection).
* :mod:`repro.serve.server` — the asyncio daemon.
* :mod:`repro.serve.client` — a blocking client (also the example
  under ``examples/serve_client.py``).
"""

from repro.serve.client import ServeClient
from repro.serve.pool import WorkerPool
from repro.serve.scheduler import SessionScheduler, TenantQuota
from repro.serve.server import ServeDaemon, running_daemon

__all__ = [
    "ServeClient",
    "ServeDaemon",
    "SessionScheduler",
    "TenantQuota",
    "WorkerPool",
    "running_daemon",
]
