"""The one HTTP front shared by the gateway and the cluster dispatcher.

One request per connection, ``Connection: close``, bodies framed by
``Content-Length`` -- all a JSON API needs, and all stdlib.
:class:`~repro.server.app.RoutingGateway` and
:class:`~repro.cluster.dispatcher.ClusterDispatcher` are each an
:class:`HttpFront` -- connection handling, request parsing, one route
table, the shared endpoints and metric families -- plus their own state and
handlers.
:func:`serve` runs a front until it drains (``repro serve``, shard worker
processes); :class:`ServerThread` runs one on a daemon thread.
:func:`fetch` is the tiny client the dispatcher proxies to its shard
workers with, without leaving the event loop.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
import urllib.parse
from dataclasses import dataclass

from repro.api.registry import describe_routers
from repro.hardware.devices import device_records
from repro.obs.events import LEVELS
from repro.obs.metrics import MetricsRegistry
from repro.server import protocol

#: Hard cap on request body size (canonical QASM for big circuits is ~1 MB).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Seconds a request may take to arrive before the connection is dropped.
READ_TIMEOUT = 30.0
#: Most header lines accepted per request.
MAX_HEADERS = 100
#: The route every ``/v1/jobs/<id>`` path maps onto; ``/result`` and
#: ``/trace`` lookups append their suffix to it.
JOB_ROUTE = "/v1/jobs/<id>"

_JOB_PREFIX = "/v1/jobs/"
_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 409: "Conflict", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            502: "Bad Gateway", 503: "Service Unavailable"}


async def read_request(reader: asyncio.StreamReader):
    """Parse one request; returns ``(method, path, query, headers, body)``.

    Returns ``None`` on an empty request line (client connected and went
    away); raises :class:`~repro.server.protocol.ProtocolError` on anything
    malformed.  Header names are lower-cased; the query dict keeps the last
    value of each repeated key.
    """
    try:
        request_line = await reader.readline()
    except ValueError:  # line over the StreamReader limit
        raise protocol.ProtocolError("request line too long") from None
    if not request_line.strip():
        return None
    try:
        method, target, _ = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise protocol.ProtocolError("malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise protocol.ProtocolError("header line too long") from None
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADERS:
            raise protocol.ProtocolError("too many headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise protocol.ProtocolError("bad Content-Length") from None
    if length < 0:
        raise protocol.ProtocolError("bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise protocol.ProtocolError("request body too large",
                                     http_status=413)
    body = await reader.readexactly(length) if length else b""
    parsed = urllib.parse.urlsplit(target)
    query = {key: values[-1] for key, values
             in urllib.parse.parse_qs(parsed.query).items()}
    return method.upper(), parsed.path, query, headers, body


async def write_response(writer: asyncio.StreamWriter, status: int,
                         payload, extra_headers: dict) -> None:
    """Send one ``Connection: close`` reply and flush it.

    ``payload`` is a JSON object (sent as ``application/json``) or text
    (the Prometheus ``/metrics`` document).
    """
    if isinstance(payload, str):
        body, content_type = payload.encode(), "text/plain; charset=utf-8"
    else:
        body = json.dumps(payload, sort_keys=True).encode()
        content_type = "application/json"
    head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close"]
    for name, value in extra_headers.items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


def parse_json_body(body: bytes) -> dict:
    """A request body as a JSON object; an empty body is ``{}``."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise protocol.ProtocolError("request body is not valid JSON") from None
    if not isinstance(payload, dict):
        raise protocol.ProtocolError("request body must be a JSON object")
    return payload


def route_of(method: str, path: str) -> tuple[tuple[str, str], str | None]:
    """The ``(method, route)`` routing key of a path, plus its job id.

    ``/v1/jobs/<id>``, ``/v1/jobs/<id>/result`` and ``/v1/jobs/<id>/trace``
    map onto :data:`JOB_ROUTE` (with the suffix); every other path is its
    own route and has no job id.
    """
    if not path.startswith(_JOB_PREFIX):
        return (method, path), None
    job_id = path[len(_JOB_PREFIX):]
    for suffix in ("/result", "/trace"):
        if job_id.endswith(suffix):
            return (method, JOB_ROUTE + suffix), job_id[:-len(suffix)]
    return (method, JOB_ROUTE), job_id


@dataclass
class Request:
    """One routed request, as every handler receives it."""

    path: str
    query: dict
    headers: dict
    #: The raw body, for fronts that forward it unchanged.
    body: bytes
    #: The body parsed as a JSON object (``{}`` when empty).
    payload: dict
    #: ``host:port`` of the client, the admission key without a client id.
    peer: str
    #: The ``<id>`` of a ``/v1/jobs/<id>...`` route.
    job_id: str | None = None
    #: A job status long-poll's ``?wait=`` seconds: non-negative, 0 for
    #: missing/NaN/negative values, not yet capped by the front.
    wait: float = 0.0


class HttpFront:
    """Connection handling, routing, lifecycle and metrics shared by both fronts.

    Every request is read with :data:`READ_TIMEOUT` and counted.  Before
    any handler runs (and so before admission) the JSON body is parsed,
    ``/v1/jobs/<id>[/result|/trace]`` is split into its route and job id,
    and a job status ``?wait=`` is parsed once.  A
    :class:`~repro.server.protocol.ProtocolError` is answered with its 4xx
    (and counted in ``bad_requests``), any other exception with a 500 that
    carries no traceback, an unknown route with a 404.

    Each counter in :attr:`COUNTERS` is a ``<METRIC_PREFIX>_<name>_total``
    instrument on the front's :class:`~repro.obs.metrics.MetricsRegistry`
    from construction on: handlers increment ``_counters[name]``, and
    ``/v1/stats`` (through :attr:`counters`) and ``/metrics`` read the same
    instruments.  The families both fronts share -- info, uptime, draining,
    jobs_open, admission and events by level -- are declared here once.

    A subclass names its :attr:`METRIC_PREFIX`, extends :attr:`COUNTERS`
    (name -> HELP) and :meth:`_gauges`, and sets ``architectures``,
    ``admission`` and ``event_log``; it implements ``start`` (which calls
    :meth:`_listen`), ``initiate_drain`` (which eventually sets ``_closed``)
    and the handlers :meth:`_routes` names.  A handler is a coroutine
    taking a :class:`Request` and returning a ``(status, payload,
    extra_headers)`` reply, the payload a JSON object or text.
    """

    #: Prefix of the front's own metric families, set by each subclass.
    METRIC_PREFIX: str
    #: The counters every front keeps, name -> HELP text.
    COUNTERS = {
        "requests": "HTTP requests handled",
        "bad_requests": "Requests rejected as malformed",
        "rejected_draining": "Submissions refused during drain",
    }

    def __init__(self, host: str, port: int, metrics: MetricsRegistry,
                 **info_labels: str) -> None:
        """``info_labels`` are extra labels on the ``<prefix>_info`` gauge."""
        from repro import __version__

        self.host = host
        self.port = port
        self._draining = False
        self._started = time.monotonic()
        self._open_jobs = 0  # queued + running (a fleet's: an estimate)
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._closed = asyncio.Event()
        self._route_table = self._routes()
        self.metrics = metrics
        prefix = self.METRIC_PREFIX
        metrics.gauge(f"{prefix}_info", "Build and wire-protocol identity").set(
            1, version=__version__, wire_version=str(protocol.WIRE_VERSION),
            **info_labels)
        for name, (help_text, read) in self._gauges().items():
            metrics.gauge(f"{prefix}_{name}", help_text).set_function(read)
        self._counters = {
            name: metrics.counter(f"{prefix}_{name}_total", help_text)
            for name, help_text in self.COUNTERS.items()}
        self._admitted = metrics.counter(
            f"{prefix}_admission_admitted_total",
            "Submissions admitted by the controller")
        self._admission_rejected = metrics.counter(
            f"{prefix}_admission_rejected_total",
            "Submissions rejected by the controller, by reason")
        self._events_emitted = metrics.counter(
            "repro_events_total",
            "Structured operational events emitted by this front, by level")

    def _routes(self) -> dict:
        """The ``(method, route) -> handler`` table this front serves."""
        return {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/metrics"): self._metrics_text,
            ("GET", "/v1/routers"): self._routers,
            ("GET", "/v1/devices"): self._devices,
            ("GET", "/v1/stats"): self._stats,
            ("GET", "/v1/slo"): self._slo,
            ("GET", "/v1/events"): self._events,
            ("POST", "/v1/admin/profile"): self._profile,
            ("POST", "/v1/admin/drain"): self._drain,
            ("POST", "/v1/jobs"): self._submit,
            ("GET", "/v1/jobs"): self._list_jobs,
            ("GET", JOB_ROUTE): self._job_status,
            ("GET", JOB_ROUTE + "/result"): self._job_result,
            ("GET", JOB_ROUTE + "/trace"): self._job_trace,
        }

    def _gauges(self) -> dict:
        """``name -> (HELP, read)`` of the gauges sampled at scrape time."""
        return {
            "uptime_seconds": ("Seconds since this front started",
                               lambda: self.uptime),
            "draining": ("Whether a graceful drain is in progress",
                         lambda: int(self._draining)),
            "jobs_open": ("Jobs queued or running",
                          lambda: self._open_jobs),
        }

    @property
    def counters(self) -> dict:
        """A snapshot of this front's counters, as ``/v1/stats`` reports them."""
        return {name: int(counter.total())
                for name, counter in self._counters.items()}

    # ------------------------------------------------------------- lifecycle

    async def _listen(self) -> None:
        """Bind the listening socket; port 0 becomes the chosen free port."""
        self._server = await asyncio.start_server(self._on_connection,
                                                  self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _close_listener(self, grace: float) -> None:
        """Stop accepting, then give in-flight responses ``grace`` seconds."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            await asyncio.wait(self._connections, timeout=grace)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def uptime(self) -> float:
        return round(time.monotonic() - self._started, 3)

    async def wait_closed(self) -> None:
        """Block until a drain has fully completed."""
        await self._closed.wait()

    # ----------------------------------------------------------- connections

    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        task = asyncio.create_task(self._handle_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "unknown"
        try:
            try:
                request = await asyncio.wait_for(read_request(reader),
                                                 READ_TIMEOUT)
            except protocol.ProtocolError as error:
                # Malformed before routing (bad request line, oversized or
                # negative Content-Length): still owed an HTTP error reply.
                reply = self._bad_request(error)
            else:
                if request is None:
                    return
                self._counters["requests"].inc()
                try:
                    reply = await self._dispatch(*request, peer)
                except protocol.ProtocolError as error:
                    reply = self._bad_request(error)
                except Exception as error:  # never leak a traceback to the wire
                    reply = (500, protocol.error_payload(
                        f"internal error: {error!r}"), {})
            await write_response(writer, *reply)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _bad_request(self, error: protocol.ProtocolError):
        self._counters["bad_requests"].inc()
        return error.http_status, protocol.error_payload(str(error)), {}

    async def _dispatch(self, method: str, path: str, query: dict,
                        headers: dict, body: bytes, peer: str):
        key, job_id = route_of(method, path)
        handler = self._route_table.get(key)
        if handler is None:
            return 404, protocol.error_payload(
                f"no such endpoint: {method} {path}"), {}
        wait = 0.0
        if key == ("GET", JOB_ROUTE):
            wait = protocol.numeric_param(query, "wait", 0.0, minimum=0.0)
        request = Request(path=path, query=query, headers=headers, body=body,
                          payload=parse_json_body(body), peer=peer,
                          job_id=job_id, wait=wait)
        return await handler(request)

    # ------------------------------------------------------ shared endpoints

    def _health_fields(self) -> dict:
        """Front-specific ``/healthz`` fields on top of status/version/uptime."""
        return {}

    async def _healthz(self, request: Request):
        from repro import __version__

        return 200, protocol.envelope(
            status="draining" if self._draining else "ok",
            version=__version__, uptime=self.uptime,
            **self._health_fields()), {}

    async def _routers(self, request: Request):
        return 200, protocol.envelope(
            routers=describe_routers(request.query.get("capability"))), {}

    async def _devices(self, request: Request):
        return 200, protocol.envelope(
            devices=device_records(),
            architectures=sorted(self.architectures)), {}

    async def _events(self, request: Request):
        """``/v1/events``: this front's event log (``?level=&limit=&event=``)."""
        query = request.query
        limit = int(protocol.numeric_param(query, "limit", 50,
                                           minimum=1, maximum=1000))
        level = query.get("level") or None
        if level is not None and level not in LEVELS:
            raise protocol.ProtocolError(
                f"unknown level {level!r}; pick one of {sorted(LEVELS)}")
        events = self.event_log.tail(limit=limit, level=level,
                                     event=query.get("event") or None)
        return 200, protocol.envelope(
            events=events, counts=self.event_log.counts_by_level(),
            dropped=self.event_log.dropped), {}

    async def _metrics_text(self, request: Request):
        """``/metrics``: the front's whole registry as Prometheus text.

        Counters and gauges are live instruments; only the counts other
        objects own -- the admission controller's and the event log's --
        are copied in here.  A subclass copies in its own extras, then calls
        this.
        """
        admission = self.admission.stats()
        self._admitted.set_total(admission["admitted"])
        for reason in ("quota", "backpressure"):
            self._admission_rejected.set_total(
                admission[f"rejected_{reason}"], reason=reason)
        for level, count in sorted(self.event_log.counts_by_level().items()):
            self._events_emitted.set_total(count, level=level)
        return 200, self.metrics.render(
            first=(f"{self.METRIC_PREFIX}_info",)), {}


async def serve(front: HttpFront, install_signal_handlers: bool = True,
                on_started=None) -> None:
    """Start ``front`` and block until it has drained and closed.

    With ``install_signal_handlers`` (the default, used by ``repro serve``
    and by shard worker processes) SIGTERM and SIGINT trigger
    ``front.initiate_drain``, so a ^C or an orchestrator's stop signal
    finishes in-flight jobs -- best-so-far within their budgets -- before
    the process exits.  ``on_started`` is called with the front once the
    port is bound (the CLI prints its listening line there).
    """
    await front.start()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, front.initiate_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX platforms / non-main threads
    if on_started is not None:
        on_started(front)
    await front.wait_closed()


class ServerThread:
    """Run a front on a daemon thread with its own event loop.

    ``build`` constructs the front inside that loop.  :meth:`start` waits up
    to ``startup_timeout`` seconds for it to bind; :meth:`stop` (and leaving
    the ``with`` block) initiates a drain and joins the thread, so queued
    jobs finish before it returns.
    """

    startup_timeout = 10.0
    stop_timeout = 60.0

    def __init__(self, build) -> None:
        self._build = build
        self.front: HttpFront | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        try:
            self.front = self._build()
            await self.front.start()
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            raise
        self._ready.set()
        await self.front.wait_closed()

    def start(self):
        self._thread.start()
        self._ready.wait(timeout=self.startup_timeout)
        name = type(self).__name__
        if self._startup_error is not None:
            raise RuntimeError(f"{name} failed to start") \
                from self._startup_error
        if self.front is None:
            raise RuntimeError(f"{name} did not start within "
                               f"{self.startup_timeout:.0f}s")
        return self

    @property
    def host(self) -> str:
        assert self.front is not None
        return self.front.host

    @property
    def port(self) -> int:
        assert self.front is not None
        return self.front.port

    @property
    def url(self) -> str:
        assert self.front is not None
        return self.front.url

    def stop(self, timeout: float | None = None) -> None:
        """Drain the front and join its thread."""
        if self._loop is not None and self.front is not None \
                and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self.front.initiate_drain)
            except RuntimeError:
                pass  # the loop closed between is_alive() and the call
        self._thread.join(timeout=self.stop_timeout if timeout is None
                          else timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


async def fetch(host: str, port: int, method: str, path: str,
                body: bytes = b"", headers: dict | None = None,
                timeout: float = 30.0):
    """One client-side request: returns ``(status, headers, body)``.

    Raises ``OSError``/``ConnectionError`` when the peer is unreachable and
    ``asyncio.TimeoutError`` when it stalls -- the dispatcher maps both onto
    a worker-health event.  The response body is framed by Content-Length
    when present, else read to EOF (the gateway always sends a length).
    """

    async def _roundtrip():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            head = [f"{method} {path} HTTP/1.1",
                    f"Host: {host}:{port}",
                    f"Content-Length: {len(body)}",
                    "Connection: close"]
            for name, value in (headers or {}).items():
                head.append(f"{name}: {value}")
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                         + body)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(f"malformed status line {status_line!r}")
            status = int(parts[1])
            response_headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                response_headers[name.strip().lower()] = value.strip()
            length_text = response_headers.get("content-length")
            if length_text is not None:
                payload = await reader.readexactly(int(length_text))
            else:
                payload = await reader.read()
            return status, response_headers, payload
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    return await asyncio.wait_for(_roundtrip(), timeout)
