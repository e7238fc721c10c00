"""Worker pool: fan routing jobs out across processes with time budgets.

The pool executes :class:`~repro.service.jobs.RoutingJob`\\ s via a
``concurrent.futures`` executor.  Three modes:

* ``process`` -- ``ProcessPoolExecutor``; true parallelism for the CPU-bound
  SAT search.  Jobs and results cross the boundary as plain data (the job is
  a picklable dataclass, the result travels as the JSON payload from
  :mod:`repro.service.cache`).
* ``thread`` -- ``ThreadPoolExecutor``; GIL-bound but useful when processes
  are unavailable (restricted sandboxes) or for I/O-ish workloads.
* ``serial`` -- execute inline in submission order; the reference behaviour
  every parallel mode must reproduce.

``auto`` picks ``process`` when more than one CPU is visible and falls back
gracefully (process -> thread -> serial) if an executor cannot be created.

Timeout semantics are *graceful*: every router in this repository is anytime
(it returns its best solution when the budget expires), so the per-job budget
is enforced primarily by the router itself.  If the primary router still
fails to produce a solution -- hard timeout, crash, genuinely stuck -- the
worker runs the fast fallback router so the caller receives a feasible
best-so-far result rather than nothing.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable

from repro.api.registry import display_name, get_router
from repro.core.result import RoutingResult, RoutingStatus
from repro.obs import trace as obs_trace
from repro.service.cache import payload_to_result, result_to_payload
from repro.service.jobs import RoutingJob

#: The router used to guarantee a feasible best-so-far answer when the
#: primary router times out: single shortest-path SWAP chains, never fails on
#: a connected architecture and runs in milliseconds.
FALLBACK_ROUTER = "naive"

#: Default extra wall-clock slack (seconds) granted on top of a job's budget
#: before the pool declares a hard timeout.  Routers self-terminate at their
#: budget; the slack covers process startup, QASM parsing, and verification.
#: Per-pool override: ``WorkerPool(slack=...)``; process-wide override: the
#: ``REPRO_POOL_SLACK`` environment variable.
HARD_TIMEOUT_SLACK = 30.0


def _default_slack() -> float:
    """The effective default slack, honouring ``REPRO_POOL_SLACK``."""
    raw = os.environ.get("REPRO_POOL_SLACK")
    if raw is None:
        return HARD_TIMEOUT_SLACK
    try:
        slack = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_POOL_SLACK must be a number, got {raw!r}") from None
    return _checked_slack(slack, "REPRO_POOL_SLACK")


def _checked_slack(slack: float, name: str) -> float:
    """``slack`` as a float; a negative, NaN or infinite slack is refused."""
    if not math.isfinite(slack) or slack < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {slack}")
    return float(slack)


#: Notes markers stamped on results that were produced by the fallback
#: router instead of the one the job asked for.  The service uses
#: :func:`is_fallback_result` to keep such substitutes out of the cache: a
#: job's content hash names a specific router, and a rescued answer under
#: that hash would be served forever in place of the real router's result.
_FALLBACK_MARKERS = ("fallback=", "rescued after ")


def is_fallback_result(result: RoutingResult) -> bool:
    """Whether a result came from the fallback router, not the job's own."""
    return any(marker in result.notes for marker in _FALLBACK_MARKERS)


def execute_job(job: RoutingJob, time_budget: float, fallback: bool = True) -> dict:
    """Run one job to completion inside a worker; returns a picklable outcome.

    The outcome dict has ``solved``, ``status``, ``router_name``, ``notes``,
    ``solve_time``, and -- when solved -- the serialised result ``payload``.
    When ``fallback`` is true and the primary router produced no solution,
    the fallback router's feasible answer is returned instead (annotated so
    callers can see the substitution).

    When the job carries a ``trace_context`` (set by the dispatching
    service), the worker builds its own span subtree -- ``queue-wait``
    synthesised from the context's ``enqueued_at``, then the router's
    encode/solve/extract/verify spans -- and ships it back serialised as
    ``outcome["trace"]`` for the parent to graft under the submitter's span.
    """
    context = job.trace_context
    root = None
    if context is not None:
        tracer = obs_trace.Tracer(max_traces=1)
        dispatched = time.time()
        enqueued = context.get("enqueued_at")
        # The root is anchored at enqueue time so the synthesised queue-wait
        # child nests inside it; "route" therefore spans wait + work.
        start = min(float(enqueued), dispatched) if enqueued is not None else None
        root = tracer.start_trace("route", start=start,
                                  job=job.key, router=job.router)
        if enqueued is not None:
            tracer.record("queue-wait", root, start=float(enqueued),
                          duration=max(0.0, dispatched - float(enqueued)))
        with obs_trace.activate(tracer, root):
            result = _execute(job, time_budget, fallback)
        root.finish(status=result.status.value,
                    router=result.router_name,
                    **result.solver_stats)
    else:
        result = _execute(job, time_budget, fallback)
    outcome = _outcome_from_result(job, result)
    if root is not None:
        outcome["trace"] = root.to_dict()
        outcome["trace_context"] = dict(context)
    return outcome


def _execute(job: RoutingJob, time_budget: float, fallback: bool) -> RoutingResult:
    circuit = job.circuit()
    architecture = job.architecture()
    router = get_router(job.spec(), time_budget=time_budget)
    result = router.route(circuit, architecture)
    if not result.solved and fallback and job.router != FALLBACK_ROUTER:
        with obs_trace.span("fallback", router=FALLBACK_ROUTER):
            rescue = get_router(FALLBACK_ROUTER,
                                time_budget=max(time_budget, 1.0)).route(
                circuit, architecture)
        if rescue.solved:
            rescue.notes = (f"fallback={FALLBACK_ROUTER} after {job.router} "
                            f"{result.status.value}"
                            + (f"; {rescue.notes}" if rescue.notes else ""))
            rescue.solve_time += result.solve_time
            result = rescue
    return result


def _outcome_from_result(job: RoutingJob, result: RoutingResult) -> dict:
    outcome = {
        "job_key": job.key,
        "solved": result.solved,
        "status": result.status.value,
        "router_name": result.router_name,
        "notes": result.notes,
        "solve_time": result.solve_time,
        "payload": None,
    }
    if result.solved and result.routed_circuit is not None:
        outcome["payload"] = result_to_payload(result)
    return outcome


def outcome_to_result(job: RoutingJob, outcome: dict) -> RoutingResult:
    """Rebuild a :class:`RoutingResult` from a worker outcome dict."""
    if outcome.get("payload") is not None:
        result = payload_to_result(outcome["payload"])
    else:
        result = RoutingResult(
            status=RoutingStatus(outcome.get("status", "error")),
            router_name=outcome.get("router_name", job.router),
            circuit_name=job.name,
            solve_time=float(outcome.get("solve_time", 0.0)),
            notes=outcome.get("notes", ""),
        )
    if outcome.get("trace") is not None:
        result.trace = outcome["trace"]
    return result


class _SerialExecutor:
    """Minimal executor that runs submissions inline, in order."""

    def submit(self, function, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(function(*args, **kwargs))
        except BaseException as error:  # noqa: BLE001 - mirror executor semantics
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True, **_) -> None:
        return None


class WorkerPool:
    """Executes routing jobs under per-job time budgets.

    Parameters
    ----------
    max_workers:
        Worker count; defaults to the visible CPU count.
    mode:
        ``"auto"``, ``"process"``, ``"thread"``, or ``"serial"``.
    fallback:
        Whether unsolved jobs are rescued with the fallback router.
    slack:
        Extra wall-clock seconds on top of each job's budget before a hard
        timeout; defaults to ``REPRO_POOL_SLACK`` or ``HARD_TIMEOUT_SLACK``.
    """

    def __init__(self, max_workers: int | None = None, mode: str = "auto",
                 fallback: bool = True, slack: float | None = None) -> None:
        if mode not in ("auto", "process", "thread", "serial"):
            raise ValueError(f"unknown pool mode {mode!r}")
        if slack is None:
            slack = _default_slack()
        elif not isinstance(slack, (int, float)) or isinstance(slack, bool):
            raise ValueError(f"slack must be a number, got {slack!r}")
        self.slack = _checked_slack(slack, "slack")
        cpus = os.cpu_count() or 1
        self.max_workers = max(1, max_workers if max_workers is not None else cpus)
        self.fallback = fallback
        self.requested_mode = mode
        if mode == "auto":
            mode = "process" if cpus > 1 and self.max_workers > 1 else "serial"
        self.mode, self._executor = self._make_executor(mode)

    def _make_executor(self, mode: str):
        if mode == "process":
            try:
                executor = ProcessPoolExecutor(max_workers=self.max_workers)
                # Surface pool-creation failures (missing /dev/shm and the
                # like) here rather than at first submit.
                executor.submit(int, 0).result(timeout=60)
                return "process", executor
            except Exception:
                mode = "thread"
        if mode == "thread":
            try:
                return "thread", ThreadPoolExecutor(max_workers=self.max_workers)
            except Exception:
                mode = "serial"
        return "serial", _SerialExecutor()

    # ------------------------------------------------------------------ API

    def submit(self, job: RoutingJob, time_budget: float,
               fallback: bool | None = None) -> Future:
        """Schedule one job; the future resolves to a worker outcome dict."""
        use_fallback = self.fallback if fallback is None else fallback
        return self._executor.submit(execute_job, job, time_budget, use_fallback)

    def run(self, jobs: list[RoutingJob], time_budget: float,
            on_done: Callable[[int, RoutingJob, RoutingResult], None] | None = None,
            ) -> list[RoutingResult]:
        """Run a batch and return results in submission order.

        Each job gets the same ``time_budget``; a job that blows through
        ``budget + slack`` wall-clock is declared a hard timeout and rescued
        inline with the fallback router, so the returned list always lines up
        one-to-one with ``jobs``.
        """
        futures = [self.submit(job, time_budget) for job in jobs]
        deadline = time.monotonic() + (time_budget + self.slack) * max(
            1, len(jobs) // self.max_workers + 1)
        results: list[RoutingResult] = []
        for index, (job, future) in enumerate(zip(jobs, futures)):
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                outcome = future.result(timeout=remaining)
                result = outcome_to_result(job, outcome)
            except FutureTimeoutError:
                future.cancel()
                result = self._rescue(job, "hard timeout in worker pool")
            except Exception as error:  # worker crashed / broken pool
                result = self._rescue(job, f"{type(error).__name__}: {error}")
            results.append(result)
            if on_done is not None:
                on_done(index, job, result)
        return results

    def _rescue(self, job: RoutingJob, reason: str) -> RoutingResult:
        """Best-so-far answer for a job whose worker never delivered."""
        if self.fallback:
            try:
                outcome = execute_job(job.with_router(FALLBACK_ROUTER),
                                      time_budget=5.0, fallback=False)
                result = outcome_to_result(job, outcome)
                if result.solved:
                    result.notes = (f"rescued after {reason}"
                                    + (f"; {result.notes}" if result.notes else ""))
                    return result
            except Exception:  # pragma: no cover - rescue is best-effort
                pass
        return RoutingResult(status=RoutingStatus.TIMEOUT,
                             router_name=display_name(job.router, job.options),
                             circuit_name=job.name, notes=reason)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
