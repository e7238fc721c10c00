"""Portfolio racing: run several routers on one job, keep the best answer.

The MaxSAT search in :mod:`repro.maxsat.solver` is anytime and the heuristic
baselines finish in milliseconds, which makes a classic solver portfolio
natural: race SATMAP against two or more heuristics, return the cheapest
*verified* solution, and cancel whatever has not started once the race is
decided.  On multi-core machines the entrants run concurrently in the worker
pool; on a single core they run in sequence with early exit as soon as an
entrant proves optimality (the serial analogue of cancelling the losers).

For a whole batch, :func:`race_portfolio_batch` submits every job's entrants
to the pool up front -- so races overlap and the pool stays saturated -- and
judges each race as its entrants finish.

Every candidate is re-verified with the independent verifier before it may
win -- a portfolio must never let a fast-but-wrong entrant beat a correct
one.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, wait

from repro.api.spec import RouterSpec
from repro.core.result import RoutingResult, RoutingStatus
from repro.service.cache import verify_cached_result
from repro.service.jobs import RoutingJob
from repro.service.pool import WorkerPool, execute_job

#: Default racing line-up: the anytime MaxSAT router plus two fast heuristics
#: with very different search styles, so at least one entrant finishes early
#: on every instance while SATMAP chases optimality.  Entries are router
#: *specs*, so configured entrants like ``"satmap:slice_size=10"`` are valid.
DEFAULT_PORTFOLIO: tuple[str, ...] = ("satmap", "sabre", "tket")


def entrant_job(job: RoutingJob, router: str | RouterSpec) -> RoutingJob:
    """The same work item with a different router behind it.

    ``router`` is a spec (string form allowed), so portfolios can race
    *configured* entrants like ``"satmap:slice_size=10"``.  An entrant naming
    the job's own router inherits the job's options as defaults.
    """
    spec = RouterSpec.parse(router)
    if spec.name == job.router:
        spec = spec.with_defaults(**job.options)
    return job.with_spec(spec)


def pick_winner(job: RoutingJob, candidates: list[RoutingResult]) -> RoutingResult | None:
    """Cheapest verified candidate; proven-optimal results break cost ties."""
    best: RoutingResult | None = None
    for candidate in candidates:
        if candidate is None or not verify_cached_result(job, candidate):
            continue
        if best is None or (candidate.added_cnots, not candidate.optimal) < (
                best.added_cnots, not best.optimal):
            best = candidate
    return best


def _judged(job: RoutingJob, candidates: list[RoutingResult],
            entrants: tuple[str, ...]) -> RoutingResult:
    """Final verdict of one race: the annotated winner or a TIMEOUT result."""
    winner = pick_winner(job, candidates)
    if winner is None:
        return RoutingResult(status=RoutingStatus.TIMEOUT, router_name="portfolio",
                             circuit_name=job.name,
                             notes=f"no entrant of {list(entrants)} produced a "
                                   f"verified solution")
    finishers = sum(1 for c in candidates if c is not None and c.solved)
    winner.notes = ((winner.notes + "; ") if winner.notes else "") + (
        f"portfolio winner={winner.router_name} "
        f"({finishers}/{len(entrants)} entrants finished)")
    return winner


def _collect_race(job: RoutingJob, pending: set, time_budget: float) -> list[RoutingResult]:
    """Drain one race's futures, cancelling losers once an optimum arrives."""
    candidates: list[RoutingResult] = []
    while pending:
        done, pending = wait(pending, timeout=time_budget + 60.0,
                             return_when=FIRST_COMPLETED)
        if not done:  # hard stall; stop waiting, judge what we have
            break
        for future in done:
            try:
                candidates.append(future.result())
            except Exception:
                continue  # a crashed entrant simply loses the race
        winner_so_far = pick_winner(job, candidates)
        if winner_so_far is not None and winner_so_far.optimal:
            break  # a proven optimum cannot be beaten, only tied
    for future in pending:  # cancel the losers
        future.cancel()
    return candidates


def race_portfolio(job: RoutingJob, time_budget: float,
                   entrants: tuple[str, ...] = DEFAULT_PORTFOLIO,
                   pool: WorkerPool | None = None) -> RoutingResult:
    """Race ``entrants`` on ``job`` and return the best verified result.

    With a pool, all entrants are submitted at once; as results arrive the
    race keeps the cheapest verified one and, once an entrant has proven
    optimality, cancels everything still pending.  Without a pool the
    entrants run serially with the same early-exit rule.
    """
    if pool is not None and pool.mode != "serial":
        return race_portfolio_batch([job], time_budget, entrants, pool)[0]
    if not entrants:
        raise ValueError("a portfolio needs at least one entrant")
    sub_jobs = [entrant_job(job, router) for router in entrants]
    candidates: list[RoutingResult] = []
    for sub_job in sub_jobs:
        try:
            candidates.append(execute_job(sub_job, time_budget, fallback=False))
        except Exception:
            continue  # as in the pool path: a crashed entrant just loses
        winner_so_far = pick_winner(job, candidates)
        if winner_so_far is not None and winner_so_far.optimal:
            break  # remaining entrants cannot beat a proven optimum
    return _judged(job, candidates, entrants)


def race_portfolio_batch(jobs: list[RoutingJob], time_budget: float,
                         entrants: tuple[str, ...] = DEFAULT_PORTFOLIO,
                         pool: WorkerPool | None = None) -> list[RoutingResult]:
    """Race a portfolio for every job, overlapping races across the pool.

    All entrants of all jobs are submitted before any race is judged, so a
    wide pool works on several races at once instead of finishing one job's
    race before starting the next.  Results come back in job order.
    """
    if not entrants:
        raise ValueError("a portfolio needs at least one entrant")
    if pool is None or pool.mode == "serial":
        return [race_portfolio(job, time_budget, entrants=entrants, pool=None)
                for job in jobs]
    races = [(job, {pool.submit(entrant_job(job, router), time_budget,
                                fallback=False) for router in entrants})
             for job in jobs]
    return [_judged(job, _collect_race(job, pending, time_budget), entrants)
            for job, pending in races]
