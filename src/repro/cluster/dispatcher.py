"""The fleet front-end: one listening socket, N shard workers behind it.

:class:`ClusterDispatcher` owns the public address of a sharded serving
fleet.  Every submission is parsed and keyed (the same
:meth:`~repro.service.BatchRoutingService.job_key` content hash the
single-process gateway deduplicates by), consistent-hashed onto one of N
:class:`~repro.cluster.worker.WorkerHandle` gateway processes, and proxied
there over loopback HTTP.  Because equal jobs always map to the same shard,
the per-gateway cross-client dedup of PR 4 holds *fleet-wide*: duplicate
submissions from any number of clients trigger exactly one solve.

Beyond routing, the dispatcher is the fleet's control plane:

* **Admission** -- the PR-4 token-bucket controller runs here, in front of
  the whole fleet (workers keep only a pending-bound safety valve), so 429
  ``Retry-After`` hints reflect fleet capacity.
* **Health** -- a sweep task watches worker processes and restarts crashed
  ones *on the same shard id*; the ring never moves, so a reborn worker
  resumes its key range and re-serves finished work from the shared disk
  cache.  A worker that keeps dying past ``max_restarts`` is cut from the
  ring and its range flows to the survivors.
* **Aggregation** -- the dispatcher's own counters are
  ``repro_cluster_*`` registry instruments from birth, and its
  ``/v1/stats`` ``dispatcher`` section and ``/metrics`` read the same
  ones.  Both merge every shard's view: ``/v1/stats`` into fleet totals,
  ``/metrics`` into per-shard ``{shard="k"}`` mirrors (HELP text from the
  gateway's declaration table) that go through a monotone fold, so a
  worker restart (which resets its in-process counters) never makes a
  scraped counter regress.  ``/v1/slo`` merges every shard's windowed
  CDFs into true fleet quantiles, ``/v1/events`` serves the dispatcher's
  own control-plane event stream (restarts, disables, drains), and
  ``POST /v1/admin/profile`` profiles one shard (``?shard=K``) or the
  dispatcher plus every live worker concurrently.
* **Drain** -- ``/v1/admin/drain`` (or SIGTERM via
  :func:`~repro.server.http.serve`) fans out to every worker, waits for
  them to finish their queues best-so-far, then closes the listener.
* **Traces** -- ``/v1/jobs/<id>/trace`` is proxied to the owning shard and
  the returned tree is re-rooted under a ``dispatch`` span carrying the
  shard id and proxy latency, so ``repro trace <job>`` shows the full
  fleet path: dispatch -> job -> route -> sat-solve.

The HTTP layer is the :class:`~repro.server.http.HttpFront` the gateway
runs on, so clients cannot tell a dispatcher from a single gateway, except
for the extra ``/v1/cluster`` topology view (the one route of its own),
the extra ``/healthz`` fields and the ``shard`` field in job payloads.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.parse
from collections import OrderedDict
from dataclasses import dataclass

from repro.cluster.config import FleetConfig
from repro.cluster.hashring import HashRing
from repro.cluster.worker import WorkerHandle
from repro.hardware.devices import named_architectures
from repro.obs import profiler as obs_profiler
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import merge_slo_statuses, mirror_slo
from repro.obs.trace import render_trace
from repro.server import http, protocol
from repro.server.admission import AdmissionController
from repro.server.app import CACHE_COUNTERS, RoutingGateway
from repro.server.http import HttpFront, Request, ServerThread
from repro.service import BatchRoutingService

#: Most recent job -> shard dispatch records kept for trace re-rooting.
MAX_DISPATCH_RECORDS = 4096
#: Attempts to reach a shard before surfacing 503 (submits are idempotent
#: by content hash, so a blind retry after a connection failure is safe).
PROXY_ATTEMPTS = 3
#: Health sweeps between open-job resyncs feeding admission backpressure.
STATS_SWEEP_EVERY = 4


@dataclass
class DispatchRecord:
    """Where one job went and how long the submit proxy took."""

    shard: int
    start: float  # wall-clock submit arrival, epoch seconds
    duration: float  # submit proxy round trip, seconds
    retries: int = 0


class ClusterDispatcher(HttpFront):
    """Front-end dispatcher for a sharded gateway fleet (see module doc)."""

    METRIC_PREFIX = "repro_cluster"
    COUNTERS = {
        **HttpFront.COUNTERS,
        "dispatched": "Submissions routed to a shard worker, by shard",
        "retried": "Proxy attempts repeated after a shard connection failure",
        "proxy_failures": "Proxied requests whose shard stayed unreachable",
        "worker_restarts": "Shard worker restarts attempted by the health "
                           "sweep, by shard",
    }

    def __init__(self, config: FleetConfig,
                 admission: AdmissionController | None = None,
                 architectures: dict | None = None) -> None:
        super().__init__(config.host, config.port, MetricsRegistry(),
                         workers=str(config.workers))
        self.config = config
        self.ring = HashRing(config.shard_ids(),
                             replicas=config.ring_replicas)
        self.workers: dict[int, WorkerHandle] = {
            shard: WorkerHandle(config, shard)
            for shard in config.shard_ids()}
        self.admission = admission if admission is not None else \
            AdmissionController(rate=config.rate, burst=config.burst,
                                max_pending=config.max_pending)
        self.architectures = (architectures if architectures is not None
                              else named_architectures())
        # Computes job keys exactly as the workers do (same budget default,
        # same portfolio namespace); never solves -- its pool is lazy and
        # route_batch is never called on it.
        self._keyer = BatchRoutingService(
            time_budget=config.time_budget, portfolio=config.portfolio,
            cache=False, tracer=False)
        #: Admission refusals, read from the controller at scrape time.
        self._rejected = self.metrics.counter(
            "repro_cluster_rejected_total",
            "Submissions refused by the fleet admission controller")
        self._dispatch_log: OrderedDict[str, DispatchRecord] = OrderedDict()
        #: The dispatcher's own operational narrative: restarts, disables,
        #: drains.  Shares the fleet's events directory when one is set.
        self.event_log = EventLog(directory=config.events_dir,
                                  owner="dispatcher")
        #: Monotone floors for mirrored per-shard counters: (metric, shard)
        #: -> (carried base, last raw reading).  A restarted worker resets
        #: its in-process counters to zero; re-exporting the raw reading
        #: would make a *counter* go backwards, which breaks every
        #: rate()-style consumer.  Instead the pre-restart total is folded
        #: into the base, so the mirrored series never regresses.
        self._monotone: dict[tuple[str, str], tuple[float, float]] = {}
        self._health_task: asyncio.Task | None = None
        self._restarting: set[int] = set()
        self._disabled: set[int] = set()

    def _routes(self) -> dict:
        return {**super()._routes(), ("GET", "/v1/cluster"): self._cluster}

    # --------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Spawn the worker fleet, bind the listener, start the health sweep."""
        loop = asyncio.get_running_loop()
        started: list[WorkerHandle] = []
        try:
            for handle in self.workers.values():
                await loop.run_in_executor(None, handle.start)
                started.append(handle)
        except BaseException:
            for handle in started:
                handle.terminate()
            raise
        await self._listen()
        self._health_task = asyncio.create_task(self._health_loop())

    def initiate_drain(self) -> None:
        """Begin graceful fleet shutdown (idempotent, loop thread only)."""
        if self._draining:
            return
        self._draining = True
        self.event_log.emit("drain-initiated", level="warning",
                            workers=len(self.workers),
                            jobs_open=self._open_jobs)
        asyncio.ensure_future(self._shutdown())

    async def _shutdown(self) -> None:
        loop = asyncio.get_running_loop()
        if self._health_task is not None:
            self._health_task.cancel()
        # Fan out the drain; workers finish their queues best-so-far.
        await asyncio.gather(
            *(self._fetch_worker(handle, "POST", "/v1/admin/drain",
                                 body=b"{}", timeout=10.0)
              for handle in self.workers.values() if handle.alive()),
            return_exceptions=True)
        # A drained gateway exits once its queue empties; give each worker
        # its full budget plus slack before escalating to SIGTERM/SIGKILL.
        join_budget = self.config.time_budget + 30.0

        def _reap() -> None:
            deadline = time.monotonic() + join_budget
            for handle in self.workers.values():
                if handle.process is None:
                    continue
                handle.process.join(
                    timeout=max(0.1, deadline - time.monotonic()))
                handle.terminate(join_timeout=5.0)

        await loop.run_in_executor(None, _reap)
        await self._close_listener(grace=35.0)
        self._keyer.close()
        self._closed.set()

    # ------------------------------------------------------------ health sweep

    async def _health_loop(self) -> None:
        loop = asyncio.get_running_loop()
        sweep = 0
        while not self._draining:
            await asyncio.sleep(self.config.health_interval)
            sweep += 1
            for shard, handle in self.workers.items():
                if self._draining:
                    return
                if (handle.alive() or shard in self._restarting
                        or shard in self._disabled):
                    continue
                self._restarting.add(shard)
                try:
                    if handle.restarts >= self.config.max_restarts:
                        self._disable_shard(shard)
                        continue
                    # Every attempt counts, whether or not the worker comes
                    # back up.
                    self._counters["worker_restarts"].inc(shard=str(shard))
                    await loop.run_in_executor(None, handle.restart)
                    self.event_log.emit("worker-restart", level="warning",
                                        shard=shard, pid=handle.pid,
                                        restarts=handle.restarts)
                except Exception as error:
                    # Startup itself failed; the next sweep retries (or gives
                    # up past max_restarts).
                    self.event_log.emit("worker-restart-failed",
                                        level="error", shard=shard,
                                        error=repr(error))
                finally:
                    self._restarting.discard(shard)
            if sweep % STATS_SWEEP_EVERY == 0:
                await self._resync_open_jobs()

    def _disable_shard(self, shard: int) -> None:
        """Give up on a flapping worker; its range flows to ring successors."""
        if shard in self._disabled or len(self.ring) <= 1:
            return
        self.ring.remove(shard)
        self._disabled.add(shard)
        self.event_log.emit("shard-disabled", level="error", shard=shard,
                            restarts=self.workers[shard].restarts,
                            shards_serving=len(self.ring))

    async def _resync_open_jobs(self) -> None:
        """Refresh the fleet-wide open-job estimate feeding backpressure."""
        per_shard = await self._gather_worker_json("GET", "/v1/stats")
        self._open_jobs = sum(int(stats.get("jobs_open", 0))
                              for stats in per_shard.values()
                              if stats is not None)

    # ----------------------------------------------------------------- proxying

    async def _fetch_worker(self, handle: WorkerHandle, method: str,
                            path: str, body: bytes = b"",
                            headers: dict | None = None,
                            timeout: float = http.READ_TIMEOUT):
        """One attempt against one worker; ``None`` on any transport failure."""
        port = handle.port
        if port is None or not handle.alive():
            return None
        try:
            return await http.fetch(handle.host, port, method, path,
                                    body=body, headers=headers,
                                    timeout=timeout)
        except (OSError, ConnectionError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            return None

    async def _proxy(self, shard: int, method: str, path: str,
                     body: bytes = b"", headers: dict | None = None,
                     timeout: float = http.READ_TIMEOUT):
        """Proxy with bounded retry; returns ``(status, headers, body, tries)``.

        Safe for submissions too: they are idempotent by content hash, so
        replaying one after a connection failure cannot double-solve.
        Returns ``None`` when the shard stays unreachable -- the caller maps
        that to 503 + ``Retry-After`` and the health sweep brings the worker
        back.
        """
        handle = self.workers.get(shard)
        if handle is None:  # pragma: no cover - defensive
            return None
        for attempt in range(PROXY_ATTEMPTS):
            if attempt:
                self._counters["retried"].inc()
                # Give the health sweep a chance to respawn the worker.
                await asyncio.sleep(
                    min(1.0, self.config.health_interval * (attempt + 0.5)))
            response = await self._fetch_worker(handle, method, path,
                                                body=body, headers=headers,
                                                timeout=timeout)
            if response is not None:
                return (*response, attempt)
        self._counters["proxy_failures"].inc()
        return None

    @staticmethod
    def _forward_headers(headers: dict) -> dict:
        forwarded = {"Content-Type": "application/json"}
        if "x-client-id" in headers:
            forwarded["X-Client-Id"] = headers["x-client-id"]
        return forwarded

    def _proxied_reply(self, shard: int, response):
        """A proxied response as a reply, its JSON tagged with ``shard``.

        ``response`` is what :meth:`_proxy` returned; ``None`` (the shard
        stayed unreachable) becomes the 503 + ``Retry-After`` reply.
        """
        if response is None:
            return self._unavailable(shard)
        status, response_headers, body, _ = response
        content_type = response_headers.get("content-type", "")
        extra = {}
        if "retry-after" in response_headers:
            extra["Retry-After"] = response_headers["retry-after"]
        if content_type.startswith("application/json"):
            try:
                decoded = json.loads(body.decode("utf-8"))
            except ValueError:  # pragma: no cover - worker never sends this
                pass
            else:
                if isinstance(decoded, dict):
                    decoded["shard"] = shard
                return status, decoded, extra
        return status, body.decode("utf-8", errors="replace"), extra

    def _unavailable(self, shard: int) -> tuple[int, dict, dict]:
        retry_after = max(1.0, self.config.health_interval * 2)
        return 503, protocol.error_payload(
            f"shard {shard} is restarting", shard=shard,
            retry_after=retry_after), {"Retry-After": f"{retry_after:.3f}"}

    def _record_dispatch(self, job_id: str, record: DispatchRecord) -> None:
        log = self._dispatch_log
        existing = log.get(job_id)
        if existing is not None:
            existing.shard = record.shard
            existing.duration = record.duration
            existing.retries += record.retries
            log.move_to_end(job_id)
            return
        log[job_id] = record
        while len(log) > MAX_DISPATCH_RECORDS:
            log.popitem(last=False)

    # ---------------------------------------------------------------- endpoints

    async def _submit(self, request: Request) -> tuple[int, object, dict]:
        client_id = request.headers.get("x-client-id") or request.peer
        arrived = time.time()
        if self._draining:
            self._counters["rejected_draining"].inc()
            return 503, protocol.error_payload("fleet is draining"), {}
        decision = self.admission.admit(client_id, pending=self._open_jobs)
        if not decision:
            self.event_log.emit("admission-rejected", level="warning",
                                client=client_id, reason=decision.reason,
                                pending=self._open_jobs)
            payload = protocol.error_payload(
                f"over quota ({decision.reason})", reason=decision.reason,
                retry_after=decision.retry_after)
            return 429, payload, {"Retry-After": f"{decision.retry_after:.3f}"}

        def parse_and_key() -> str:
            job = protocol.parse_submit(request.payload, self.architectures)
            return self._keyer.job_key(job)

        loop = asyncio.get_running_loop()
        job_key = await loop.run_in_executor(None, parse_and_key)
        shard = self.ring.shard_for(job_key)
        response = await self._proxy(
            shard, "POST", "/v1/jobs", body=request.body,
            headers=self._forward_headers(request.headers))
        if response is not None:
            self._record_dispatch(job_key, DispatchRecord(
                shard=shard, start=arrived, duration=time.time() - arrived,
                retries=response[3]))
            self._counters["dispatched"].inc(shard=str(shard))
            self._open_jobs += 1
        return self._proxied_reply(shard, response)

    async def _job_status(self, request: Request) -> tuple[int, object, dict]:
        """Status/result/trace lookups, proxied to the owning shard."""
        shard = self.ring.shard_for(request.job_id)
        path = request.path
        if request.query:
            path += "?" + urllib.parse.urlencode(request.query)
        # A long-poll holds the connection for up to ``wait`` seconds.
        timeout = http.READ_TIMEOUT + min(request.wait, 60.0)
        response = await self._proxy(shard, "GET", path, timeout=timeout)
        return self._proxied_reply(shard, response)

    _job_result = _job_status  # the owning shard builds the result itself

    async def _job_trace(self, request: Request) -> tuple[int, object, dict]:
        status, payload, extra = await self._job_status(request)
        if status == 200 and isinstance(payload, dict):
            self._reroot_trace(request.job_id, payload["shard"], payload)
        return status, payload, extra

    def _reroot_trace(self, job_id: str, shard: int, payload: dict) -> None:
        """Wrap the worker's span tree under the dispatcher's dispatch span.

        The worker's gateway owns the ``job`` root in its own process; the
        dispatcher cannot graft into that tracer, so the fleet view is
        synthesised at read time from the dispatch record taken when the
        submission was proxied.  ``repro trace <job>`` then shows
        dispatch -> job -> route -> ... in one tree.
        """
        tree = payload.get("trace")
        record = self._dispatch_log.get(job_id)
        if not isinstance(tree, dict) or record is None:
            return
        tree_end = float(tree.get("start", record.start)) + float(
            tree.get("duration") or 0.0)
        duration = max(record.duration, tree_end - record.start)
        dispatch_span = {
            "name": "dispatch",
            "trace_id": tree.get("trace_id", job_id[:16]),
            "span_id": f"dispatch-{job_id[:16]}",
            "start": record.start,
            "duration": duration,
            "attributes": {"shard": record.shard, "job": job_id,
                           "proxy_seconds": round(record.duration, 6),
                           "retries": record.retries},
            "children": [tree],
        }
        payload["trace"] = dispatch_span
        payload["rendered"] = render_trace(dispatch_span)

    async def _list_jobs(self, request: Request) -> tuple[int, dict, dict]:
        """Fan out ``GET /v1/jobs`` and merge, tagging each job's shard."""
        per_shard = await self._gather_worker_json("GET", "/v1/jobs",
                                                   timeout=10.0)
        merged: list[dict] = []
        for shard, listing in per_shard.items():
            for job in (listing or {}).get("jobs", []):
                job["shard"] = shard
                merged.append(job)
        return 200, protocol.envelope(jobs=merged), {}

    # -------------------------------------------------------------- aggregation

    async def _gather_worker_json(self, method: str, path: str,
                                  timeout: float = 5.0,
                                  ) -> dict[int, dict | None]:
        """Fan ``method path`` out to every worker; ``None`` per failure."""
        async def one(shard: int, handle: WorkerHandle):
            response = await self._fetch_worker(handle, method, path,
                                                timeout=timeout)
            if response is None:
                return shard, None
            status, _, body = response
            if status != 200:
                return shard, None
            try:
                return shard, json.loads(body)
            except ValueError:  # pragma: no cover - defensive
                return shard, None

        pairs = await asyncio.gather(*(one(shard, handle) for shard, handle
                                       in sorted(self.workers.items())))
        return dict(pairs)

    async def _slo(self, request: Request) -> tuple[int, dict, dict]:
        """``/v1/slo``: per-shard statuses plus the true fleet merge.

        Shard trackers ship their raw windowed bucket counts, so the fleet
        quantiles come from summed CDFs -- not averaged shard quantiles.
        """
        per_shard = await self._gather_worker_json("GET", "/v1/slo")
        merged = merge_slo_statuses(
            [status for status in per_shard.values() if status is not None])
        return 200, protocol.envelope(
            fleet=merged,
            shards={str(shard): status
                    for shard, status in per_shard.items()}), {}

    async def _profile(self, request: Request) -> tuple[int, object, dict]:
        """``POST /v1/admin/profile``: one shard (``?shard=K``) or the fleet.

        The fleet form profiles every live worker *and* the dispatcher
        process concurrently for the same window, so one call answers
        "where is the whole deployment spending its seconds?".
        """
        query = request.query
        seconds = protocol.numeric_param(
            query, "seconds", 1.0, minimum=0.05,
            maximum=obs_profiler.MAX_PROFILE_SECONDS)
        qs = urllib.parse.urlencode(
            {key: query[key] for key in ("seconds", "interval")
             if key in query})
        path = "/v1/admin/profile" + (f"?{qs}" if qs else "")
        fetch_timeout = seconds + 30.0
        if "shard" in query:
            try:
                shard = int(query["shard"])
            except ValueError:
                raise protocol.ProtocolError("shard must be an integer") \
                    from None
            if shard not in self.workers:
                return 404, protocol.error_payload(
                    f"unknown shard {shard}"), {}
            response = await self._proxy(shard, "POST", path,
                                         timeout=fetch_timeout)
            return self._proxied_reply(shard, response)
        loop = asyncio.get_running_loop()
        self.event_log.emit("profile-start", seconds=seconds, shard="*")
        own, per_shard = await asyncio.gather(
            loop.run_in_executor(
                None, lambda: obs_profiler.profile(seconds)),
            self._gather_worker_json("POST", path, timeout=fetch_timeout))
        return 200, protocol.envelope(
            seconds=seconds, dispatcher=own,
            shards={str(shard): report
                    for shard, report in per_shard.items()}), {}

    def _monotone_total(self, metric: str, shard: str,
                        reported: float) -> float:
        """Fold per-shard counter readings into a never-regressing total."""
        base, last = self._monotone.get((metric, shard), (0.0, 0.0))
        if reported < last:
            # The worker restarted and its in-process counter reset; carry
            # everything it had reported before the reset as a base.
            base += last
        self._monotone[(metric, shard)] = (base, reported)
        return base + reported

    @property
    def counters(self) -> dict:
        """The dispatcher's counters plus ``rejected``, the admission refusals."""
        admission = self.admission.stats()
        return {**super().counters,
                "rejected": (admission["rejected_quota"]
                             + admission["rejected_backpressure"])}

    def _workers_alive(self) -> int:
        return sum(1 for handle in self.workers.values() if handle.alive())

    def _gauges(self) -> dict:
        return {**super()._gauges(),
                "workers": ("Configured shard workers",
                            lambda: len(self.workers)),
                "workers_alive": ("Shard worker processes currently alive",
                                  self._workers_alive)}

    def _fleet_section(self) -> dict:
        return {
            "uptime": self.uptime,
            "draining": self._draining,
            "workers": len(self.workers),
            "workers_alive": self._workers_alive(),
            "shards_serving": self.ring.shards,
            "dispatcher": self.counters,
            "admission": self.admission.stats(),
            "events": self.event_log.counts_by_level(),
            "worker_detail": [handle.describe() for _, handle
                              in sorted(self.workers.items())],
        }

    async def _stats(self, request: Request) -> tuple[int, dict, dict]:
        per_shard = await self._gather_worker_json("GET", "/v1/stats")
        totals = {"jobs_open": 0, "jobs_known": 0, "throughput": 0.0,
                  "gateway": {}, "telemetry": {}, "cache": {}}
        cache_totals: dict[str, float] = {}
        cache_shared_max: dict[str, float] = {}
        for stats in per_shard.values():
            if stats is None:
                continue
            totals["jobs_open"] += int(stats.get("jobs_open", 0))
            totals["jobs_known"] += int(stats.get("jobs_known", 0))
            totals["throughput"] += float(stats.get("throughput", 0.0))
            for name, value in stats.get("gateway", {}).items():
                totals["gateway"][name] = totals["gateway"].get(name, 0) + value
            for kind, count in stats.get("telemetry", {}).items():
                totals["telemetry"][kind] = (totals["telemetry"].get(kind, 0)
                                             + count)
            for name, value in stats.get("cache", {}).items():
                cache_totals[name] = cache_totals.get(name, 0) + value
                cache_shared_max[name] = max(cache_shared_max.get(name, 0),
                                             value)
        if cache_totals:
            # Counters (hits/stores/...) sum across shards; entries and
            # bytes describe the one shared directory, so take the freshest
            # (max) view instead of multiply counting it.
            totals["cache"] = {
                name: (cache_shared_max[name]
                       if name in ("entries", "total_bytes", "max_bytes")
                       else value)
                for name, value in cache_totals.items() if name != "hit_rate"}
        totals["throughput"] = round(totals["throughput"], 4)
        return 200, protocol.envelope(
            fleet=self._fleet_section(), totals=totals,
            shards={str(shard): stats for shard, stats in per_shard.items()}), {}

    async def _metrics_text(self, request: Request) -> tuple[int, str, dict]:
        """The fleet ``/metrics``: shared families, shard mirrors, merged SLO."""
        registry = self.metrics
        self._rejected.set_total(self.counters["rejected"])
        per_shard, slo_statuses = await asyncio.gather(
            self._gather_worker_json("GET", "/v1/stats"),
            self._gather_worker_json("GET", "/v1/slo"))
        alive_gauge = registry.gauge("repro_fleet_worker_up",
                                     "Whether each shard answered /v1/stats")
        open_gauge = registry.gauge("repro_fleet_jobs_open",
                                    "Open jobs per shard")
        for shard, stats in per_shard.items():
            label = str(shard)
            alive_gauge.set(int(stats is not None), shard=label)
            if stats is None:
                continue
            open_gauge.set(int(stats.get("jobs_open", 0)), shard=label)
            # Counters are mirrored through a monotone fold: a restarted
            # worker reports from zero again, and a scrape must never see a
            # counter regress (promcheck and rate() both assume it).
            for name, value in stats.get("gateway", {}).items():
                registry.counter(
                    f"repro_fleet_{name}_total",
                    RoutingGateway.COUNTERS.get(name, name)).set_total(
                    self._monotone_total(f"gateway.{name}", label,
                                         float(value)), shard=label)
            cache = stats.get("cache")
            if cache:
                for key, help_text in CACHE_COUNTERS.items():
                    registry.counter(
                        f"repro_fleet_cache_{key}_total", help_text
                        ).set_total(self._monotone_total(
                            f"cache.{key}", label, float(cache[key])),
                            shard=label)
        merged = merge_slo_statuses(
            [status for status in slo_statuses.values() if status is not None])
        if merged is not None:
            mirror_slo(registry, merged)
        return await super()._metrics_text(request)

    async def _cluster(self, request: Request) -> tuple[int, dict, dict]:
        return 200, protocol.envelope(
            fleet=self._fleet_section(),
            ring={"replicas": self.config.ring_replicas,
                  "shards": self.ring.shards}), {}

    async def _drain(self, request: Request) -> tuple[int, dict, dict]:
        self.initiate_drain()
        return 200, protocol.envelope(draining=True,
                                      workers=len(self.workers)), {}

    def _health_fields(self) -> dict:
        return {"role": "dispatcher", "workers": len(self.workers),
                "workers_alive": self._workers_alive()}


class FleetThread(ServerThread):
    """Run a dispatcher fleet on a daemon thread: tests, examples, benches.

    Usage::

        with FleetThread(FleetConfig(workers=4, cache_dir=...)) as fleet:
            client = RoutingClient(port=fleet.port)
            ...

    Exiting the context drains the fleet (workers finish their queues) and
    joins the thread.
    """

    #: Seconds :meth:`start` waits for the whole fleet (N worker
    #: handshakes) before giving up.
    startup_timeout = 120.0
    stop_timeout = 120.0

    def __init__(self, config: FleetConfig, **dispatcher_kwargs) -> None:
        super().__init__(lambda: ClusterDispatcher(config, **dispatcher_kwargs))

    @property
    def dispatcher(self) -> ClusterDispatcher | None:
        return self.front
