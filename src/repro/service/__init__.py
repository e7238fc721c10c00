"""Batch routing service: parallel execution, portfolio racing, result cache.

This subsystem turns the single-call routers of :mod:`repro.core` and
:mod:`repro.baselines` into a throughput-oriented service:

* :mod:`repro.service.jobs` -- self-contained, content-hashed job specs;
* :mod:`repro.service.cache` -- content-addressed, verified result cache
  (in-memory + on-disk JSON);
* :mod:`repro.service.pool` -- process/thread/serial worker pool with
  graceful per-job timeouts (best-so-far semantics) and the fallback router;
* :mod:`repro.service.portfolio` -- race SATMAP against heuristic baselines,
  return the cheapest verified result, cancel the losers;
* :mod:`repro.service.queue` -- dispatch order (one stable sort,
  costliest job first) and progress callbacks;
* :mod:`repro.service.service` -- the :class:`BatchRoutingService` facade,
  which emits each job step into an :class:`~repro.obs.events.EventLog` and
  owns the per-job histograms.

Routers are built by name or spec through :func:`repro.api.get_router`.
"""

from repro.service.cache import ResultCache, payload_to_result, result_to_payload, verify_cached_result
from repro.service.jobs import RoutingJob
from repro.service.pool import FALLBACK_ROUTER, WorkerPool, execute_job, is_fallback_result
from repro.service.portfolio import DEFAULT_PORTFOLIO, race_portfolio, race_portfolio_batch
from repro.service.queue import BatchProgress, dispatch_order
from repro.service.service import BatchRoutingService

__all__ = [
    "BatchRoutingService",
    "RoutingJob",
    "ResultCache",
    "WorkerPool",
    "BatchProgress",
    "race_portfolio",
    "race_portfolio_batch",
    "is_fallback_result",
    "dispatch_order",
    "execute_job",
    "result_to_payload",
    "payload_to_result",
    "verify_cached_result",
    "DEFAULT_PORTFOLIO",
    "FALLBACK_ROUTER",
]
