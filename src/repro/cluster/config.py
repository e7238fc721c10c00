"""Fleet topology and per-worker configuration.

One :class:`FleetConfig` describes the whole deployment: how many shard
workers, where the dispatcher listens, and every knob a worker needs to
build its :class:`~repro.service.BatchRoutingService` +
:class:`~repro.server.app.RoutingGateway` pair.  The config is all plain
data so it pickles across the ``multiprocessing`` spawn boundary.

Two invariants matter for fleet-wide dedup:

* every worker must key jobs identically, so they all get the *same*
  ``time_budget`` default and ``portfolio`` namespace -- and the
  dispatcher's keyer service (which only computes
  :meth:`~repro.service.BatchRoutingService.job_key`, never solves) is
  built from the same fields;
* the disk cache directory is *shared* across shards; each worker stamps
  its entries with its shard id and serialises writers through the cache's
  file lock (see :class:`repro.service.ResultCache`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class FleetConfig:
    """Everything needed to start a dispatcher and its shard workers."""

    #: Number of gateway/solver worker processes (ring shards).
    workers: int = 4
    #: Dispatcher bind address.  Workers always bind loopback.
    host: str = "127.0.0.1"
    #: Dispatcher port; 0 picks a free one.
    port: int = 0
    #: Default per-job budget, seconds -- part of the job key, so it is
    #: fleet-wide, not per worker.
    time_budget: float = 10.0
    #: Per-worker service pool size (``None``: the pool's own default).
    pool_workers: int | None = None
    #: Per-worker service pool mode (auto | process | thread | serial).
    pool_mode: str = "auto"
    #: Shared on-disk result cache directory; ``None`` disables caching
    #: (consistent hashing alone still guarantees fleet-wide single-solve,
    #: but results then die with their worker).
    cache_dir: str | None = ".repro-cache"
    #: LRU byte bound on the shared cache (``None``: unbounded).
    cache_max_bytes: int | None = None
    #: Portfolio entrants raced per job (``None``: each job's own router).
    portfolio: tuple[str, ...] | None = None
    #: Dispatcher-level admission: per-client token rate and burst.
    rate: float = 20.0
    burst: float = 40.0
    #: Dispatcher-level backpressure bound on open jobs across the fleet.
    max_pending: int = 256
    #: Per-worker trace JSONL directory (``None`` disables persistence).
    #: Shared across the fleet: each worker writes ``traces.shard-N.jsonl``.
    trace_dir: str | None = None
    #: Structured-event JSONL directory, shared like ``trace_dir`` (``None``
    #: keeps events in memory only, still served at ``/v1/events``).
    events_dir: str | None = None
    #: SLO objectives, as plain dicts so the config pickles across the
    #: spawn boundary (see :meth:`repro.obs.slo.SloObjective.to_dict`).
    #: Empty uses the default objective on every worker.
    slos: tuple = ()
    #: Tail-sampling keep probability for fast, successful traces
    #: (``None`` disables sampling: every trace is retained).
    trace_sample_rate: float | None = None
    #: Root duration (seconds) at or past which a trace is always kept.
    slow_trace_seconds: float | None = None
    #: SAT solve core on every shard worker ("python" | "native" | "auto";
    #: ``None`` defers to each worker's ``$REPRO_SAT_BACKEND`` / auto).
    #: Fleet-wide so shards make identical backend choices.
    solver_backend: str | None = None
    #: Seconds between dispatcher health sweeps over the worker processes.
    health_interval: float = 0.5
    #: Virtual nodes per shard on the consistent-hash ring.
    ring_replicas: int = 64
    #: Most automatic restarts per worker before the dispatcher gives up on
    #: it (its key range then flows to ring successors).
    max_restarts: int = 16
    #: Extra gateway kwargs applied to every worker (tests use this).
    gateway_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("a fleet needs at least one worker")
        if not 0 < self.time_budget < math.inf:
            raise ValueError("time_budget must be positive and finite")
        if self.health_interval <= 0:
            raise ValueError("health_interval must be positive")

    def shard_ids(self) -> list[int]:
        return list(range(self.workers))
