"""repro.cluster: a sharded multi-process serving fleet behind one dispatcher.

One asyncio :class:`ClusterDispatcher` owns the public socket and consistent-
hashes every submission's job content hash onto N shard workers -- each a
full :class:`~repro.server.app.RoutingGateway` process -- so identical jobs
from any client always reach the same worker and the gateway's cross-client
dedup holds fleet-wide.  Workers share one disk result cache; the dispatcher
health-checks and restarts crashed workers on their original shard ids,
aggregates fleet ``/metrics`` and ``/v1/stats``, and fans out graceful
drain.  The dispatcher is the gateway's HTTP front
(:class:`~repro.server.http.HttpFront`) with its own handlers, and
:func:`repro.server.serve` runs it: ``repro serve --workers N`` is the CLI
face of this package.
"""

from repro.cluster.config import FleetConfig
from repro.cluster.dispatcher import ClusterDispatcher, FleetThread
from repro.cluster.hashring import HashRing
from repro.cluster.worker import WorkerHandle, worker_main

__all__ = [
    "ClusterDispatcher",
    "FleetConfig",
    "FleetThread",
    "HashRing",
    "WorkerHandle",
    "worker_main",
]
