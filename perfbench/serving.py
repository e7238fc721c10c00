"""Serving stacks and the closed-loop clients that drive them.

:class:`ServedStack` builds the gateway or the fleet exactly as a served
workload configures it; :func:`drive_rounds` is the closed loop: two
``RoutingClient`` threads that each send their job of a round, wait for the
result, and meet at a barrier before the next round, so cross-client
duplicates really are submitted concurrently.
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cluster import FleetConfig, FleetThread
from repro.server import AdmissionController, RoutingClient
from repro.server.app import GatewayThread
from repro.service import BatchRoutingService

#: Admission rate and burst per client for the served workloads: far above
#: what a closed loop of two clients can send, so admission never refuses.
OPEN_RATE = 1e6
#: Per-job budget of every served job (part of the job key).
SERVED_BUDGET = 30.0
#: Client socket timeout and per-job wait limit, seconds.
CLIENT_TIMEOUT = 120.0


@dataclass
class Job:
    """One routed job as the caller saw it."""

    circuit: object  # workloads.Circuit
    result: object | None
    error: str | None
    latency: float
    #: Serving path: "first", "joined" (deduplicated onto a live or finished
    #: job record) or "hit" (answered by the result cache); direct jobs are
    #: "first".
    path: str = "first"
    queue_wait: float | None = None
    verdict: object | None = None  # checker.Verdict, filled in later


def build_area_tempdir(root: Path) -> tempfile.TemporaryDirectory:
    """A private temporary directory under the checkout's build area."""
    base = root / ".bench_build"
    base.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


class ServedStack:
    """The gateway or fleet a served workload (or a ladder rung) runs on.

    ``cache``: ``"memory"`` (gateway default), ``"disk"`` (a fresh shared
    directory for the fleet) or ``None`` (no result cache).
    ``max_records``: finished job records each gateway keeps (``None``:
    the gateway default).
    """

    def __init__(self, kind: str, root: Path, cache: str | None,
                 max_records: int | None) -> None:
        self.kind = kind
        self.root = root
        self.cache = cache
        self.max_records = max_records
        self._runner = None
        self._tmp: tempfile.TemporaryDirectory | None = None

    def start(self) -> "ServedStack":
        options = {} if self.max_records is None else {"max_records": self.max_records}
        if self.kind == "gateway":
            service = BatchRoutingService(
                max_workers=2, mode="process", time_budget=SERVED_BUDGET,
                cache=None if self.cache == "memory" else False)
            self._runner = GatewayThread(
                service=service,
                admission=AdmissionController(rate=OPEN_RATE, burst=OPEN_RATE),
                **options)
            self._service = service
        elif self.kind == "fleet":
            cache_dir = None
            if self.cache == "disk":
                self._tmp = build_area_tempdir(self.root)
                cache_dir = self._tmp.name
            config = FleetConfig(
                workers=2, pool_workers=1, pool_mode="process",
                time_budget=SERVED_BUDGET, cache_dir=cache_dir,
                rate=OPEN_RATE, burst=OPEN_RATE, solver_backend="native",
                gateway_options=options)
            self._runner = FleetThread(config)
        else:
            raise ValueError(self.kind)
        self._runner.start()
        return self

    @property
    def port(self) -> int:
        return self._runner.port

    def client(self, index: int) -> RoutingClient:
        return RoutingClient(port=self.port, client_id=f"perfbench-{index}",
                             timeout=CLIENT_TIMEOUT)

    def stop(self) -> None:
        if self._runner is not None:
            self._runner.stop()
            if self.kind == "gateway":
                self._service.close()
            self._runner = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "ServedStack":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def submit_and_wait(client: RoutingClient, circuit, arch: str, spec: str,
                    fetch_trace: bool = False) -> Job:
    """One job through the HTTP surface, timed from submit to result."""
    started = time.perf_counter()
    result = error = None
    path = "first"
    job_id = None
    try:
        ticket = client.submit(circuit.circuit, arch, router=spec,
                               name=circuit.label)
        job_id = ticket["job_id"]
        result = client.wait(job_id, timeout=CLIENT_TIMEOUT)
        if ticket.get("deduplicated"):
            path = "joined"
        elif "cache-hit" in (result.notes or ""):
            path = "hit"
    except Exception as failure:  # a failed job is counted, never fatal
        error = f"{type(failure).__name__}: {failure}"
    job = Job(circuit, result, error, time.perf_counter() - started, path)
    if fetch_trace and job_id is not None and error is None:
        job.queue_wait = queue_wait_of(client, job_id)
    return job


def queue_wait_of(client: RoutingClient, job_id: str) -> float | None:
    """The job's ``queue-wait`` span duration from ``/v1/jobs/<id>/trace``."""
    from repro.obs.trace import find_span

    try:
        tree = client.trace(job_id)["trace"]
    except Exception:
        return None  # record pruned or trace sampled out
    span = find_span(tree, "queue-wait")
    if span is None or span.get("duration") is None:
        return None
    return float(span["duration"])


def drive_rounds(stack: ServedStack, rounds: list, arch: str, spec: str,
                 fetch_trace: bool = False) -> tuple[list[Job], float, int]:
    """Run the closed loop; returns ``(jobs, wall seconds, client retries)``."""
    clients = [stack.client(0), stack.client(1)]
    barrier = threading.Barrier(2)
    jobs: list[list[Job]] = [[], []]
    failures: list[Exception] = []

    def loop(index: int) -> None:
        try:
            for pair in rounds:
                barrier.wait(timeout=CLIENT_TIMEOUT * 2)
                jobs[index].append(submit_and_wait(
                    clients[index], pair[index], arch, spec,
                    fetch_trace=fetch_trace))
        except Exception as failure:  # surfaced after join
            failures.append(failure)
            barrier.abort()

    threads = [threading.Thread(target=loop, args=(index,), daemon=True)
               for index in (0, 1)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if failures:
        raise RuntimeError(f"closed-loop client died: {failures[0]!r}")
    ordered = [job for pair in zip(*jobs) for job in pair]
    return ordered, wall, sum(client.retries for client in clients)


def served_counters(stats: dict) -> dict:
    """Dedup, admission and cache counters from a gateway or fleet ``/v1/stats``."""
    if "totals" in stats:  # fleet dispatcher
        gateway = stats["totals"].get("gateway", {})
        cache = stats["totals"].get("cache", {})
        admission = stats["fleet"]["admission"]
    else:
        gateway = stats.get("gateway", {})
        cache = stats.get("cache", {})
        admission = stats["admission"]
    hits = float(cache.get("hits", 0))
    misses = float(cache.get("misses", 0))
    return {
        "joined": int(gateway.get("deduplicated", 0)),
        "rejected": int(admission.get("rejected_quota", 0))
                    + int(admission.get("rejected_backpressure", 0)),
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
