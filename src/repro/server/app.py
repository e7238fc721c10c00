"""The asyncio JSON-over-HTTP routing gateway.

:class:`RoutingGateway` puts a network front on
:class:`~repro.service.BatchRoutingService`: many concurrent clients submit
routing jobs, identical submissions deduplicate into one solve, admission
control sheds overload with 429s, and a metrics endpoint exposes the
service's per-job histograms and event counts.  The gateway installs its
own ``info``-level :class:`~repro.obs.events.EventLog` on the service, so
one log counts every job step and every gateway event, while ``/v1/events``
and the ``--events-dir`` files keep only ``info`` and above.  The HTTP
layer -- connection handling, body parsing, the route table, ``/healthz``,
``/v1/routers``, ``/v1/devices``, ``/v1/events`` and the metric families
both fronts share -- is the :class:`~repro.server.http.HttpFront` it shares
with the fleet dispatcher; this module holds the gateway's own state (jobs,
their queue, the service) and its handlers.  The gateway's counters
(:attr:`RoutingGateway.COUNTERS`) are ``repro_server_*`` instruments on the
service's registry from the start: the ``gateway`` section of ``/v1/stats``
and ``/metrics`` read the same instruments.

Endpoints (wire schemas in :mod:`repro.server.protocol`):

==========  =========================  ==========================================
method      path                       purpose
==========  =========================  ==========================================
GET         ``/healthz``               liveness + drain state
POST        ``/v1/jobs``               submit a routing job (dedups by content)
GET         ``/v1/jobs``               list known jobs
GET         ``/v1/jobs/<id>``          job status; ``?wait=SECS`` long-polls
GET         ``/v1/jobs/<id>/result``   the full result (routed circuit as QASM)
GET         ``/v1/jobs/<id>/trace``    the job's span tree + rendered form
GET         ``/v1/routers``            registry listing (``?capability=`` filter)
GET         ``/v1/devices``            device catalogue + addressable arch names
GET         ``/v1/stats``              JSON counters (telemetry/cache/admission)
GET         ``/v1/slo``                rolling-window SLO evaluation + burn rate
GET         ``/v1/events``             structured event tail (``?level=&limit=``)
GET         ``/metrics``               Prometheus-style text metrics
POST        ``/v1/admin/drain``        begin graceful shutdown
POST        ``/v1/admin/profile``      sample all stacks for ``?seconds=N``
==========  =========================  ==========================================

Execution model: submissions land in an asyncio queue; a single dispatcher
task collects whatever is queued (up to ``max_batch``) and runs it as *one*
``route_batch`` call in a worker thread.  Parallelism across jobs comes from
the service's own worker pool; the gateway never calls the service from two
threads at once.  Dedup happens at two levels: the gateway maps equal
:meth:`~repro.service.BatchRoutingService.job_key` hashes onto one job
record before anything is queued, and the service's verified result cache
answers repeats across batches and restarts.

Graceful shutdown (`SIGTERM`, ``/v1/admin/drain``, or
:meth:`RoutingGateway.initiate_drain`): new submissions get 503, the
dispatcher finishes every queued job -- each bounded by its time budget,
with the pool's best-so-far fallback -- status/result requests keep being
served while that happens, and only then does the server close.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.core.result import RoutingResult
from repro.hardware.devices import named_architectures
from repro.obs import render_trace
from repro.obs import profiler as obs_profiler
from repro.obs.events import EventLog
from repro.obs.export import JsonlTraceWriter
from repro.obs.sampling import TailSampler
from repro.obs.slo import SloTracker, mirror_slo
from repro.server import protocol
from repro.server.admission import AdmissionController
# ``serve`` is part of this module's public surface (``repro.server.serve``).
from repro.server.http import HttpFront, Request, ServerThread, serve
from repro.service import BatchRoutingService
from repro.service.jobs import RoutingJob

#: The result-cache counters, ``cache.stats()`` key -> HELP text.
CACHE_COUNTERS = {
    "hits": "Cache lookups answered",
    "misses": "Cache lookups that missed",
    "stores": "Results stored in the cache",
    "rejected": "Results the verifier refused to cache",
    "evictions": "Entries evicted by the size bound",
}


@dataclass
class JobRecord:
    """One deduplicated unit of work and its lifecycle state."""

    job_id: str
    job: RoutingJob
    status: str = "queued"  # queued | running | done
    submissions: int = 1
    submitted_at: float = field(default_factory=time.monotonic)
    finished_at: float | None = None
    result: RoutingResult | None = None
    error: str | None = None
    done: asyncio.Event = field(default_factory=asyncio.Event)
    #: Root span id of this job's trace tree in the gateway's tracer.
    trace_id: str | None = None

    def status_payload(self, include_result: bool = False) -> dict:
        payload = {
            "job_id": self.job_id,
            "status": self.status,
            "name": self.job.name,
            "spec": self.job.spec().to_dict(),
            "architecture": self.job.arch_name,
            "submissions": self.submissions,
        }
        if self.status == "done":
            payload["elapsed"] = round(
                (self.finished_at or time.monotonic()) - self.submitted_at, 6)
            if self.error is not None:
                payload["solved"] = False
                payload["error"] = self.error
            elif self.result is not None:
                payload["solved"] = self.result.solved
                payload["cache_hit"] = "cache-hit" in self.result.notes
                if include_result:
                    payload["result"] = protocol.result_to_wire(self.result)
        return protocol.envelope(payload)


class RoutingGateway(HttpFront):
    """Serve :class:`BatchRoutingService` over HTTP to concurrent clients.

    Parameters
    ----------
    service:
        The backing service; a default one (auto pool mode, memory cache) is
        created when omitted and closed with the gateway.
    host / port:
        Bind address; port 0 picks a free port (see :attr:`port` after
        :meth:`start`).
    admission:
        The :class:`AdmissionController`; a permissive default is created
        when omitted.
    time_budget:
        Default per-job budget; ``None`` uses the service's own default.
    max_batch:
        Most queued jobs folded into one ``route_batch`` call.
    long_poll_cap:
        Upper bound on ``?wait=`` long-poll durations, seconds.
    max_records:
        Most finished job records kept in memory; past it the oldest
        finished ones are dropped (their results stay reachable through the
        service's result cache -- a resubmission is a fast cache hit, not a
        re-solve).  Queued/running jobs are never dropped.
    trace_dir:
        When set, every finished job's trace tree is appended as JSONL
        under this directory (size-rotated files), so production traces
        survive process restarts.
    trace_owner:
        Per-writer tag for shared ``trace_dir``/``events_dir`` directories
        (fleet workers pass ``shard-N``); also stamps this gateway's
        events.  ``None`` is fine for a single process.
    slo:
        SLO tracking: an :class:`~repro.obs.slo.SloTracker`, a sequence of
        :class:`~repro.obs.slo.SloObjective` (or their dict form) to build
        one from, ``None`` for a tracker with the default objective, or
        ``False`` to disable ``/v1/slo``.
    sampler:
        A :class:`~repro.obs.sampling.TailSampler` deciding which finished
        traces are retained (store + JSONL).  ``None`` keeps every trace.
    events_dir:
        Directory for the rotating JSONL sink of the gateway's ``info``-level
        event log (``None`` keeps events in memory only).  The log replaces
        the service's own, so job failures, fallbacks and cache churn land
        next to admission and lifecycle events; the debug-level job steps
        are counted but neither kept nor written.
    """

    METRIC_PREFIX = "repro_server"
    COUNTERS = {
        **HttpFront.COUNTERS,
        "submitted": "Jobs accepted for solving",
        "deduplicated": "Submissions answered by an existing job record",
        "completed": "Jobs finished with a result",
        "failed": "Jobs finished with an error",
        "records_pruned": "Finished job records evicted from memory",
    }

    def __init__(self, service: BatchRoutingService | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 admission: AdmissionController | None = None,
                 time_budget: float | None = None,
                 max_batch: int = 32,
                 long_poll_cap: float = 30.0,
                 max_records: int = 4096,
                 architectures: dict | None = None,
                 trace_dir=None, trace_owner: str | None = None,
                 slo=None, sampler: TailSampler | None = None,
                 events_dir=None) -> None:
        self.service = service if service is not None else BatchRoutingService()
        # One registry backs /metrics: the service's per-job histograms are
        # already on it, and the gateway's own instruments join them.
        super().__init__(host, port, self.service.metrics)
        self._owns_service = service is None
        self.admission = admission if admission is not None else AdmissionController()
        self.time_budget = time_budget
        self.max_batch = max(1, max_batch)
        self.long_poll_cap = long_poll_cap
        self.max_records = max(1, max_records)
        self.architectures = (architectures if architectures is not None
                              else named_architectures())
        #: Shared with the service so the worker-pool subtrees graft into
        #: the same trees the gateway's root spans live in.  ``None`` when
        #: the service was built with ``tracer=False``.
        self.tracer = self.service.tracer
        self._trace_writer = (JsonlTraceWriter(trace_dir, owner=trace_owner)
                              if trace_dir is not None else None)
        if isinstance(slo, SloTracker):
            self.slo: SloTracker | None = slo
        elif slo is False:
            self.slo = None
        else:
            self.slo = SloTracker(objectives=slo or ())
        self.sampler = sampler
        self.event_log = EventLog(directory=events_dir, owner=trace_owner,
                                  level="info")
        self.service.event_log = self.event_log
        self._gateway_seconds = self.metrics.histogram(
            "repro_gateway_job_seconds",
            "Submission-to-finish seconds per gateway job")
        self.jobs: dict[str, JobRecord] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._dispatcher: asyncio.Task | None = None

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind the listening socket and start the dispatcher."""
        await self._listen()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    def initiate_drain(self) -> None:
        """Begin graceful shutdown (idempotent; call from the loop thread).

        New submissions are refused with 503 from this point on; queued and
        running jobs are completed (best-so-far within their budgets) and
        stay fetchable until the queue is empty, then the server closes.
        """
        if self._draining:
            return
        self._draining = True
        self.event_log.emit("drain-initiated", level="warning",
                            jobs_open=self._open_jobs)
        self._queue.put_nowait(None)  # wake the dispatcher

    async def _shutdown(self) -> None:
        """Close the listener, let in-flight responses finish, release workers."""
        await self._close_listener(grace=self.long_poll_cap + 5.0)
        if self._owns_service:
            self.service.close()
        self._closed.set()

    # ------------------------------------------------------------ dispatcher

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            batch: list[JobRecord] = [] if item is None else [item]
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is not None:
                    batch.append(extra)
            if batch:
                for record in batch:
                    record.status = "running"
                jobs = [record.job for record in batch]
                try:
                    results = await loop.run_in_executor(
                        None, self._route_batch_sync, jobs)
                except Exception as error:  # worker-side crash: fail the batch
                    for record in batch:
                        self._finish(record, None, error=repr(error))
                else:
                    for record, result in zip(batch, results):
                        self._finish(record, result)
            if self._draining and self._queue.empty():
                break
        await self._shutdown()

    def _route_batch_sync(self, jobs: list[RoutingJob]) -> list[RoutingResult]:
        return self.service.route_batch(jobs, time_budget=self.time_budget)

    def _finish(self, record: JobRecord, result: RoutingResult | None,
                error: str | None = None) -> None:
        record.result = result
        record.error = error
        record.status = "done"
        record.finished_at = time.monotonic()
        self._open_jobs -= 1
        if error is None and result is not None:
            self._counters["completed"].inc()
        else:
            self._counters["failed"].inc()
        elapsed = record.finished_at - record.submitted_at
        self._gateway_seconds.observe(elapsed)
        ok = error is None and result is not None and result.solved
        if self.slo is not None:
            self.slo.observe(record.job.router, elapsed, ok=ok)
        if error is not None:
            # Service-level failures are already events in the shared log; a
            # batch-level crash never reaches the service's recording, so the
            # gateway narrates it itself.
            self.event_log.emit("job-error", level="error",
                                job_id=record.job_id,
                                job_name=record.job.name, error=error)
        if self.tracer is not None and record.trace_id is not None:
            root = self.tracer.get(record.trace_id)
            if root is not None:
                attrs = {"submissions": record.submissions}
                if result is not None:
                    attrs["status"] = result.status.value
                    attrs["swaps"] = result.swap_count
                if error is not None:
                    attrs["error"] = error
                root.finish(**attrs)
                keep = (self.sampler is None
                        or self.sampler.decide(root).keep)
                if not keep:
                    self.tracer.discard(root.trace_id)
                if keep and self._trace_writer is not None:
                    self._trace_writer.write(root)
        record.done.set()
        self._prune_records()

    def _prune_records(self) -> None:
        """Bound the in-memory job history (the cache still has the results)."""
        excess = len(self.jobs) - self.max_records
        if excess <= 0:
            return
        finished = sorted(
            (record for record in self.jobs.values()
             if record.status == "done"),
            key=lambda record: record.finished_at or 0.0)
        for record in finished[:excess]:
            del self.jobs[record.job_id]
            self._counters["records_pruned"].inc()

    # ------------------------------------------------------------- endpoints

    async def _submit(self, request: Request) -> tuple[int, dict, dict]:
        client_id = request.headers.get("x-client-id") or request.peer
        submit_started = time.time()
        if self._draining:
            self._counters["rejected_draining"].inc()
            return 503, protocol.error_payload("server is draining"), {}
        decision = self.admission.admit(client_id, pending=self._open_jobs)
        if not decision:
            self.event_log.emit("admission-rejected", level="warning",
                                client=client_id, reason=decision.reason,
                                retry_after=round(decision.retry_after, 3),
                                pending=self._open_jobs)
            body = protocol.error_payload(
                f"over quota ({decision.reason})", reason=decision.reason,
                retry_after=decision.retry_after)
            return 429, body, {"Retry-After": f"{decision.retry_after:.3f}"}

        def parse_and_key():
            # QASM parsing, canonicalisation, and the SHA-256 content hash
            # can burn real CPU on large circuits -- off the loop thread.
            job = protocol.parse_submit(request.payload, self.architectures)
            return job, self.service.job_key(job, self.time_budget)

        loop = asyncio.get_running_loop()
        job, job_id = await loop.run_in_executor(None, parse_and_key)
        record = self.jobs.get(job_id)
        if record is not None and record.status == "done" and (
                record.error is not None
                or record.result is None or not record.result.solved):
            # A crashed or unsolved (timed-out) attempt must not poison this
            # content hash forever: forget the record and solve afresh.
            # Successful results stay deduplicated indefinitely -- they are
            # verified and content-addressed, so they cannot go stale.
            del self.jobs[job_id]
            record = None
        if record is not None:
            # Content-identical to a known job: answer with the same record,
            # whatever its state -- this is the cross-client single-solve
            # dedup path.
            record.submissions += 1
            self._counters["deduplicated"].inc()
            body = record.status_payload()
            body["deduplicated"] = True
            return 200, body, {}
        record = JobRecord(job_id=job_id, job=job)
        if self.tracer is not None:
            # The gateway owns the job's root span; admission + parsing is
            # its first (closed) child, and the job's trace context rides on
            # the job so service and pool spans graft under the same root.
            now = time.time()
            root = self.tracer.start_trace(
                "job", start=submit_started, job=job_id,
                job_name=job.name, router=job.router)
            self.tracer.record("admit", root, start=submit_started,
                               duration=now - submit_started,
                               client=client_id)
            job.trace_context = dict(root.context(), enqueued_at=now)
            record.trace_id = root.trace_id
        self.jobs[job_id] = record
        self._open_jobs += 1
        self._counters["submitted"].inc()
        self._queue.put_nowait(record)
        body = record.status_payload()
        body["deduplicated"] = False
        return 202, body, {}

    async def _list_jobs(self, request: Request) -> tuple[int, dict, dict]:
        summaries = [record.status_payload() for record in self.jobs.values()]
        return 200, protocol.envelope(jobs=summaries), {}

    async def _job_status(self, request: Request) -> tuple[int, dict, dict]:
        record = self.jobs.get(request.job_id)
        if record is None:
            return 404, protocol.error_payload(
                f"unknown job {request.job_id!r}"), {}
        if request.wait > 0.0 and not record.done.is_set():
            try:
                await asyncio.wait_for(record.done.wait(),
                                       min(request.wait, self.long_poll_cap))
            except asyncio.TimeoutError:
                pass
        # ``include_result`` lets a long-poll carry the result home on the
        # same connection -- essential during a drain, when the listener may
        # close before a follow-up fetch could connect.
        include_result = request.query.get("include_result", "") in (
            "1", "true", "yes")
        return 200, record.status_payload(include_result=include_result), {}

    async def _job_trace(self, request: Request) -> tuple[int, dict, dict]:
        """The job's span tree (finished or in flight) plus a rendered form."""
        record = self.jobs.get(request.job_id)
        if record is None:
            return 404, protocol.error_payload(
                f"unknown job {request.job_id!r}"), {}
        if self.tracer is None or record.trace_id is None:
            return 404, protocol.error_payload(
                "tracing is disabled for this job"), {}
        root = self.tracer.get(record.trace_id)
        if root is None:
            return 404, protocol.error_payload(
                "trace evicted from the in-memory store"), {}
        tree = root.to_dict()
        return 200, protocol.envelope(job_id=request.job_id,
                                      status=record.status,
                                      trace=tree,
                                      rendered=render_trace(tree)), {}

    async def _job_result(self, request: Request) -> tuple[int, dict, dict]:
        record = self.jobs.get(request.job_id)
        if record is None:
            return 404, protocol.error_payload(
                f"unknown job {request.job_id!r}"), {}
        if record.status != "done":
            return 409, protocol.error_payload(
                "job not finished", status=record.status), {}
        return 200, record.status_payload(include_result=True), {}

    async def _stats(self, request: Request) -> tuple[int, dict, dict]:
        stats = {
            "uptime": self.uptime,
            "draining": self._draining,
            "jobs_open": self._open_jobs,
            "jobs_known": len(self.jobs),
            "gateway": self.counters,
            "admission": self.admission.stats(),
            "telemetry": dict(sorted(
                self.event_log.counts_by_event().items())),
            "throughput": round(self.service.throughput(), 4),
        }
        if self.service.cache is not None:
            stats["cache"] = self.service.cache.stats()
        stats["events"] = self.event_log.counts_by_level()
        return 200, protocol.envelope(stats), {}

    async def _slo(self, request: Request) -> tuple[int, dict, dict]:
        if self.slo is None:
            return 404, protocol.error_payload(
                "SLO tracking is disabled on this server"), {}
        return 200, protocol.envelope(self.slo.status()), {}

    async def _profile(self, request: Request) -> tuple[int, dict, dict]:
        """``POST /v1/admin/profile?seconds=N``: sample every thread's stack.

        The profiler blocks for the sampling window, so it runs on an
        executor thread; the event loop keeps serving.  The loaded worker
        threads it observes are exactly the ones solving, so the collapsed
        stacks name SAT-core frames directly.
        """
        seconds = protocol.numeric_param(
            request.query, "seconds", 1.0, minimum=0.05,
            maximum=obs_profiler.MAX_PROFILE_SECONDS)
        interval = protocol.numeric_param(request.query, "interval", 0.005,
                                          minimum=0.001, maximum=0.1)
        self.event_log.emit("profile-start", seconds=seconds,
                            interval=interval)
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None, lambda: obs_profiler.profile(seconds, interval=interval))
        return 200, protocol.envelope(report), {}

    async def _drain(self, request: Request) -> tuple[int, dict, dict]:
        self.initiate_drain()
        return 200, protocol.envelope(draining=True,
                                      jobs_open=self._open_jobs), {}

    def _gauges(self) -> dict:
        return {**super()._gauges(),
                "jobs_known": ("Job records held in memory",
                               lambda: len(self.jobs))}

    async def _metrics_text(self, request: Request) -> tuple[int, str, dict]:
        """``/metrics``: the shared families plus the gateway's own extras.

        The extras are the cache state, the SLO evaluation, the sampler's
        decisions and the events by kind, all copied in at scrape time; the
        latency/queue/stage/conflict histograms the service feeds per
        finished job are already on the registry.
        """
        registry = self.metrics
        events = registry.counter(
            "repro_telemetry_events_total",
            "Events emitted by the service and the gateway, by kind")
        for kind, count in sorted(self.event_log.counts_by_event().items()):
            events.set_total(count, kind=kind)
        if self.service.cache is not None:
            cache = self.service.cache.stats()
            for key, help_text in CACHE_COUNTERS.items():
                registry.counter(f"repro_cache_{key}_total",
                                 help_text).set_total(int(cache[key]))
            registry.gauge("repro_cache_entries",
                           "Entries currently cached").set(int(cache["entries"]))
            registry.gauge("repro_cache_bytes",
                           "Bytes currently cached").set(
                int(cache["total_bytes"]))
        if self.slo is not None:
            mirror_slo(registry, self.slo.status())
        if self.sampler is not None:
            sampled = registry.counter(
                "repro_trace_sampled_total",
                "Tail-sampling decisions on finished traces, by reason")
            for reason, count in sorted(dict(self.sampler.counts).items()):
                sampled.set_total(count, reason=reason)
        return await super()._metrics_text(request)


class GatewayThread(ServerThread):
    """Run a gateway on a daemon thread: tests, examples, and benchmarks.

    Usage::

        with GatewayThread(service=BatchRoutingService(mode="thread")) as gw:
            client = RoutingClient(port=gw.port)
            ...

    Exiting the context initiates a drain and joins the thread, so queued
    jobs finish before the block returns.
    """

    def __init__(self, **gateway_kwargs) -> None:
        super().__init__(lambda: RoutingGateway(**gateway_kwargs))

    @property
    def gateway(self) -> RoutingGateway | None:
        return self.front
