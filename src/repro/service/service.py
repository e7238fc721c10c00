"""The batch routing service facade.

:class:`BatchRoutingService` ties the subsystem together: jobs come in, the
content-addressed cache is consulted first, misses are ordered by estimated
cost and fanned out over the worker pool (optionally as portfolio races),
every produced result is re-checked by the independent verifier before it is
cached, and each job step is one event in the service's
:class:`~repro.obs.events.EventLog`.  Results always come back in submission
order, so a batch is deterministic regardless of worker count or completion
order.

Typical use::

    from repro import BatchRoutingService, RoutingJob

    service = BatchRoutingService(max_workers=4, time_budget=10.0,
                                  cache_dir=".repro-cache")
    jobs = [RoutingJob.from_circuit(circ, arch, router="satmap")
            for circ in circuits]
    results = service.route_batch(jobs)
    print(service.summary())
"""

from __future__ import annotations

import math
import time
from pathlib import Path

from repro.api.spec import RouterSpec
from repro.circuits.circuit import QuantumCircuit
from repro.core.result import RoutingResult
from repro.hardware.architecture import Architecture
from repro.obs import trace as obs_trace
from repro.obs.events import EventLog
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry
from repro.service.cache import ResultCache
from repro.service.jobs import RoutingJob
from repro.service.pool import WorkerPool, is_fallback_result
from repro.service.portfolio import DEFAULT_PORTFOLIO, race_portfolio_batch
from repro.service.queue import BatchProgress, ProgressCallback, dispatch_order


class BatchRoutingService:
    """Parallel, cached, verified routing of job batches.

    Parameters
    ----------
    max_workers:
        Worker processes for the pool (default: visible CPU count).
    mode:
        Pool mode: ``"auto"``, ``"process"``, ``"thread"``, or ``"serial"``.
    time_budget:
        Default per-job budget in seconds.
    cache_dir:
        Directory for the on-disk cache layer; ``None`` keeps results
        in memory only.  Pass ``cache=False`` to disable caching entirely.
    cache_max_bytes:
        Size bound for the result cache (LRU eviction past the limit);
        ``None`` leaves it unbounded.  Ignored when an explicit ``cache``
        instance is supplied.
    portfolio:
        ``True`` races :data:`~repro.service.portfolio.DEFAULT_PORTFOLIO`
        per job, a tuple of registry names races those, ``None``/``False``
        runs each job's own router only.
    fallback:
        Whether jobs whose router produces no solution are rescued with the
        fast fallback router (best-so-far semantics).  Disable for faithful
        per-router comparisons, where a timeout should stay a timeout.
    tracer:
        Span collector for per-job trace trees.  ``None`` (default) creates
        one -- tracing is cheap next to SAT solving -- ``False`` disables
        tracing, and an explicit :class:`~repro.obs.Tracer` shares the
        caller's (the HTTP gateway passes its own so job spans, pool
        subtrees, and admission spans land in one tree).

    Every job step is one event in :attr:`event_log`: ``queued``,
    ``started``, ``cache-hit``, ``cache-store`` and ``finished`` at
    ``debug``; ``fallback``, ``cache-reject`` and ``cache-evict`` at
    ``warning``; ``failed`` at ``error``.  The default log keeps them all.
    A gateway built on the service replaces :attr:`event_log` with its own
    ``info``-level log, which counts the debug steps without keeping them.
    Finished jobs feed the per-job histograms on :attr:`metrics`.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        mode: str = "auto",
        time_budget: float = 30.0,
        cache_dir: str | Path | None = None,
        cache: ResultCache | bool | None = None,
        cache_max_bytes: int | None = None,
        portfolio: bool | tuple[str, ...] | None = None,
        fallback: bool = True,
        tracer: obs_trace.Tracer | bool | None = None,
    ) -> None:
        if not 0 < time_budget < math.inf:
            raise ValueError("time_budget must be positive and finite")
        self.time_budget = time_budget
        if cache is False:
            self.cache: ResultCache | None = None
        elif isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(directory=cache_dir,
                                     max_bytes=cache_max_bytes)
        if portfolio is True:
            self.portfolio: tuple[str, ...] | None = DEFAULT_PORTFOLIO
        elif portfolio:
            # Entrants are router specs; normalise to canonical string form
            # (and validate them now) so equivalent spellings produce the
            # same cache namespace in _key_job.
            self.portfolio = tuple(
                RouterSpec.parse(entry).validated().to_string()
                for entry in portfolio)
        else:
            self.portfolio = None
        self.event_log = EventLog()
        self.metrics = MetricsRegistry()
        self._job_seconds = self.metrics.histogram(
            "repro_job_seconds",
            "End-to-end solve seconds per finished routing job")
        self._stage_seconds = self.metrics.histogram(
            "repro_stage_seconds",
            "Solve-path seconds per stage (encode / solve / extract) "
            "per finished job")
        self._queue_wait = self.metrics.histogram(
            "repro_queue_wait_seconds",
            "Seconds a job waited between submission and dispatch")
        self._solve_conflicts = self.metrics.histogram(
            "repro_solve_conflicts",
            "CDCL conflicts accumulated per finished job",
            buckets=DEFAULT_COUNT_BUCKETS)
        self._sat_solve_seconds = self.metrics.histogram(
            "repro_sat_solve_seconds",
            "Solve-stage seconds per finished job by SAT solve core "
            "(backend label: python | native)")
        #: Session-reuse counters summed over finished jobs.
        self.clauses_streamed = 0
        self.learnt_retained = 0
        self._start = time.monotonic()
        self.fallback = fallback
        if tracer is False:
            self.tracer: obs_trace.Tracer | None = None
        elif tracer is None or tracer is True:
            self.tracer = obs_trace.Tracer()
        else:
            self.tracer = tracer
        self._max_workers = max_workers
        self._mode = mode
        self._pool: WorkerPool | None = None

    # ----------------------------------------------------------- lifecycle

    @property
    def pool(self) -> WorkerPool:
        """The worker pool, created lazily on first miss."""
        if self._pool is None:
            self._pool = WorkerPool(max_workers=self._max_workers, mode=self._mode,
                                    fallback=self.fallback)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "BatchRoutingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------------- API

    def route_batch(self, jobs: list[RoutingJob],
                    time_budget: float | None = None,
                    progress: ProgressCallback | None = None,
                    ) -> list[RoutingResult]:
        """Route a batch; the i-th result always answers the i-th job."""
        budget = time_budget if time_budget is not None else self.time_budget
        results: list[RoutingResult | None] = [None] * len(jobs)
        key_jobs = [self._key_job(job, budget) for job in jobs]
        completed = 0

        def report(index: int, result: RoutingResult) -> None:
            nonlocal completed
            completed += 1
            if progress is not None:
                progress(BatchProgress(completed=completed, total=len(jobs),
                                       job=jobs[index], solved=result.solved))

        # Phase 1: cache lookups, plus in-batch dedup -- a content hash is
        # computed at most once per batch no matter how often it appears.
        queued_indices: list[int] = []
        first_occurrence: dict[str, int] = {}
        duplicates: list[tuple[int, int]] = []  # (index, index of first occurrence)
        for index, job in enumerate(jobs):
            key_job = key_jobs[index]
            self._record("queued", job, router=job.router)
            cached = self.cache.get(key_job) if self.cache is not None else None
            if cached is not None:
                self._record("cache-hit", job, swaps=cached.swap_count)
                results[index] = cached
                report(index, cached)
            elif key_job.content_hash() in first_occurrence:
                duplicates.append((index, first_occurrence[key_job.content_hash()]))
            else:
                first_occurrence[key_job.content_hash()] = index
                queued_indices.append(index)

        # Phase 2: dispatch misses, costliest first.  Each dispatched job
        # carries a span context (parent ids + enqueue time) so the worker
        # can synthesise its queue-wait span and graft its subtree back.
        original_index = [queued_indices[slot] for slot in dispatch_order(
            [jobs[index] for index in queued_indices])]
        ordered_jobs = [jobs[index] for index in original_index]
        owned_roots: dict[int, obs_trace.Span] = {}
        if self.tracer is not None:
            enqueued_at = time.time()
            for slot, job in enumerate(ordered_jobs):
                context = job.trace_context
                if context is None:
                    # Standalone use: the service owns the job's root span.
                    # Under the gateway the job arrives with the gateway
                    # root's context already attached.
                    root = self.tracer.start_trace(
                        "job", job=job.key, job_name=job.name,
                        router=job.router)
                    owned_roots[slot] = root
                    context = root.context()
                merged = dict(context)
                # An upstream enqueue time (the gateway's submission moment)
                # wins: queue-wait then covers its queue and ours.
                merged.setdefault("enqueued_at", enqueued_at)
                job.trace_context = merged

        def finish(slot: int, job: RoutingJob, result: RoutingResult) -> None:
            index = original_index[slot]
            if self.tracer is not None and result.trace is not None:
                context = job.trace_context or {}
                self.tracer.attach_tree(result.trace,
                                        trace_id=context.get("trace_id"),
                                        parent_span_id=context.get("span_id"))
            root = owned_roots.get(slot)
            if root is not None:
                root.finish(status=result.status.value,
                            swaps=result.swap_count)
                result.trace = root.to_dict()
            self._record_outcome(job, key_jobs[index], result)
            results[index] = result
            report(index, result)

        if self.portfolio is not None and ordered_jobs:
            for job in ordered_jobs:
                self._record("started", job, entrants=len(self.portfolio))
            raced = race_portfolio_batch(ordered_jobs, budget,
                                         entrants=self.portfolio, pool=self.pool)
            for slot, (job, result) in enumerate(zip(ordered_jobs, raced)):
                finish(slot, job, result)
        elif ordered_jobs:
            for job in ordered_jobs:
                self._record("started", job, router=job.router)
            self.pool.run(ordered_jobs, budget, on_done=finish)

        # Phase 3: duplicates of a computed job are served from the cache
        # (a verified hit) or, when caching is off, share the first result.
        for index, source in duplicates:
            job = jobs[index]
            served = self.cache.get(key_jobs[index]) if self.cache is not None else None
            if served is None:
                served = results[source]
            self._record("cache-hit", job, dedup=True,
                         swaps=served.swap_count if served.solved else -1)
            results[index] = served
            report(index, served)

        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def route_one(self, job: RoutingJob,
                  time_budget: float | None = None) -> RoutingResult:
        """Route a single job through the full cache/pool/verify path."""
        return self.route_batch([job], time_budget=time_budget)[0]

    def route_circuit(self, circuit: QuantumCircuit, architecture: Architecture,
                      router: str | RouterSpec = "satmap",
                      options: dict | None = None,
                      time_budget: float | None = None) -> RoutingResult:
        """Convenience wrapper building the job from in-memory objects.

        ``router`` accepts a registry name, a spec string like
        ``"satmap:slice_size=10"``, or a :class:`~repro.api.RouterSpec`.
        """
        job = RoutingJob.from_circuit(circuit, architecture, router=router,
                                      options=options)
        return self.route_one(job, time_budget=time_budget)

    def route_requests(self, requests: list,
                       time_budget: float | None = None,
                       progress=None) -> list[RoutingResult]:
        """Route a batch of :class:`repro.api.RouteRequest` objects."""
        jobs = [request.to_job() for request in requests]
        return self.route_batch(jobs, time_budget=time_budget,
                                progress=progress)

    def job_key(self, job: RoutingJob, time_budget: float | None = None) -> str:
        """The content hash a job is cached (and deduplicated) under.

        This is the job's own content hash refined with the execution config
        (effective budget, portfolio namespace) exactly as ``route_batch``
        keys the cache, so two submissions with equal ``job_key`` are
        guaranteed to share one solve.  The network gateway uses this for
        cross-client dedup.
        """
        budget = time_budget if time_budget is not None else self.time_budget
        return self._key_job(job, budget).content_hash()

    # ------------------------------------------------------------ internals

    def _key_job(self, job: RoutingJob, budget: float) -> RoutingJob:
        """The job as it is keyed in the cache: the full execution config.

        Two refinements over the job's own hash.  A portfolio winner may
        come from any entrant, so portfolio results live under a namespaced
        router tag and can never be served as the answer to a plain
        single-router job (or vice versa).  And the routers are anytime --
        a larger budget can buy a better solution -- so the *effective*
        budget is part of the key and a low-budget result is never served
        to a high-budget request.  A ``time_budget`` carried in the job's
        own spec wins at execution (the worker builds the router from the
        spec), so it must win in the key too; the service budget applies
        only when the spec leaves it unset.
        """
        options = dict(job.options)
        options.setdefault("time_budget", float(budget))
        router = job.router
        if self.portfolio is not None:
            router = "portfolio:" + "+".join(self.portfolio)
        return job.with_router(router, options=options)

    def _record(self, kind: str, job: RoutingJob, level: str = "debug",
                **detail) -> None:
        self.event_log.emit(kind, level=level, job_key=job.key,
                            job_name=job.name, **detail)

    def _record_outcome(self, job: RoutingJob, key_job: RoutingJob,
                        result: RoutingResult) -> None:
        if not result.solved:
            self._record("failed", job, level="error",
                         status=result.status.value)
            return
        rescued = is_fallback_result(result)
        if rescued:
            self._record("fallback", job, level="warning",
                         router=result.router_name)
        if self.cache is not None and not rescued:
            # Fallback substitutes are never cached: the key names the
            # requested router, and a rescued answer stored under it would
            # be served forever in place of the real router's result.
            # ``put`` re-runs the independent verifier; a result that fails
            # it is refused and surfaces as a cache-reject event.
            evicted_before = self.cache.evictions
            if self.cache.put(key_job, result):
                self._record("cache-store", job)
            else:
                self._record("cache-reject", job, level="warning")
            evicted = self.cache.evictions - evicted_before
            if evicted:
                # Size-bound eviction triggered by this store: an event
                # (and a /metrics count) like any other.
                self._record("cache-evict", job, level="warning",
                             evicted=evicted,
                             total_bytes=self.cache.total_bytes())
        # Per-stage solve-path timings (encode / solve / extract), session
        # reuse and CDCL depth, when the router reports them: this is what
        # makes incremental solving observable from the service.
        self._job_seconds.observe(result.solve_time)
        for stage, seconds in result.stage_timings.items():
            self._stage_seconds.observe(seconds, stage=stage)
        self.clauses_streamed += result.clauses_streamed
        self.learnt_retained += result.learnt_clauses_retained
        stats = result.solver_stats
        if "conflicts" in stats:
            self._solve_conflicts.observe(float(stats["conflicts"]))
        if stats.get("backend"):
            self._sat_solve_seconds.observe(
                result.stage_timings.get("solve", result.solve_time),
                backend=str(stats["backend"]))
        if result.trace is not None:
            waited = obs_trace.find_span(result.trace, "queue-wait")
            if waited is not None and waited.get("duration") is not None:
                self._queue_wait.observe(float(waited["duration"]))
        self._record("finished", job, swaps=result.swap_count,
                     solve_time=round(result.solve_time, 6))

    # ------------------------------------------------------------- roll-ups

    @property
    def jobs_finished(self) -> int:
        """Completed jobs, cache hits included."""
        counts = self.event_log.counts_by_event()
        return counts.get("finished", 0) + counts.get("cache-hit", 0)

    def throughput(self) -> float:
        """Completed jobs (including cache hits) per wall-clock second."""
        elapsed = time.monotonic() - self._start
        return self.jobs_finished / elapsed if elapsed > 0 else 0.0

    def summary(self) -> str:
        """Multi-line human-readable roll-up of the job counters."""
        lines = ["service telemetry:"]
        for kind, count in sorted(self.event_log.counts_by_event().items()):
            lines.append(f"  {kind:<12} {count}")
        lines.append(f"  {'wall time':<12} "
                     f"{time.monotonic() - self._start:.3f}s")
        lines.append(f"  {'solver time':<12} {self._job_seconds.sum:.3f}s")
        for stage in ("encode", "solve", "extract"):
            series = self._stage_seconds.snapshot(stage=stage)
            if series["count"]:
                lines.append(f"  {'· ' + stage:<12} {series['sum']:.3f}s")
        if self.clauses_streamed:
            lines.append(f"  {'streamed':<12} {self.clauses_streamed} clauses")
        if self.learnt_retained:
            lines.append(f"  {'learnt kept':<12} {self.learnt_retained} clauses")
        lines.append(f"  {'throughput':<12} {self.throughput():.2f} jobs/s")
        return "\n".join(lines)

    def stats(self) -> dict:
        """Joint cache + job counters for dashboards and tests."""
        stats = {"throughput": self.throughput(),
                 "jobs_finished": self.jobs_finished,
                 "events": len(self.event_log)}
        if self.cache is not None:
            stats["cache"] = self.cache.stats()
        if self._pool is not None:
            stats["pool_mode"] = self._pool.mode
            stats["max_workers"] = self._pool.max_workers
        return stats
