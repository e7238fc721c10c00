"""Per-layer measurement for the traced run.

Router layers are timed by wrapping their public entry points where the
caller looks them up, from this file only (nothing in ``src/`` changes):

* ``QmrEncoder.encode`` (encode),
* ``MaxSatSolver.solve`` (solve, with the session's CDCL counter deltas),
* ``SatMapRouter.solve_monolithic`` (slice attempts; not timed itself),
* ``extract_solution`` / ``build_routed_circuit`` in ``repro.core.satmap``
  (extract),
* ``verify_routing`` in ``repro.api.protocol`` (verify).

A timed call that starts inside another timed call is counted in
``nested`` and not timed again, so the layers never overlap and
``route.other_s = route wall - layers`` is what the layers leave unexplained.

Serving layers are measured with a ladder: the same jobs go through direct
``route()``, ``BatchRoutingService`` serial, the same service with a process
pool, the gateway, and the fleet; each layer costs the difference of the
per-job medians of adjacent rungs.
"""

from __future__ import annotations

import pickle
import time
from contextlib import contextmanager

from stats import median


class RouterLayers:
    """Installs timing wrappers on the router layers while active."""

    def __init__(self) -> None:
        self.seconds = {"encode": 0.0, "solve": 0.0, "extract": 0.0, "verify": 0.0}
        self.counts = {"encode.calls": 0, "encode.hard_clauses": 0,
                       "solve.calls": 0, "solve.sat_calls": 0,
                       "solve.conflicts": 0, "solve.propagations": 0,
                       "slice.attempts": 0, "slice.unsat": 0, "nested": 0}
        self._depth = 0
        self._patches: list[tuple[object, str, object]] = []

    def _timed(self, layer: str, function, after=None):
        def wrapper(*args, **kwargs):
            if self._depth:
                self.counts["nested"] += 1
                return function(*args, **kwargs)
            self._depth += 1
            started = time.perf_counter()
            try:
                value = function(*args, **kwargs)
            finally:
                self.seconds[layer] += time.perf_counter() - started
                self._depth -= 1
            if after is not None:
                after(args, value)
            return value

        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        import repro.api.protocol as protocol
        import repro.core.satmap as satmap
        from repro.core.encoder import QmrEncoder
        from repro.core.result import RoutingStatus
        from repro.maxsat.solver import MaxSatSolver

        counts = self.counts

        def after_encode(args, encoding) -> None:
            counts["encode.calls"] += 1
            counts["encode.hard_clauses"] += encoding.num_hard_clauses

        self._patch(QmrEncoder, "encode",
                    self._timed("encode", QmrEncoder.encode, after_encode))

        original_solve = MaxSatSolver.solve
        timed_solve = self._timed("solve", original_solve)

        def solve(solver, *args, **kwargs):
            session = solver.session
            before = session.solver_stats() if session is not None else {}
            result = timed_solve(solver, *args, **kwargs)
            counts["solve.calls"] += 1
            counts["solve.sat_calls"] += result.sat_calls
            if session is not None:
                after = session.solver_stats()
                for key in ("conflicts", "propagations"):
                    counts[f"solve.{key}"] += int(after.get(key, 0)) - int(before.get(key, 0))
            return result

        self._patch(MaxSatSolver, "solve", solve)

        original_monolithic = satmap.SatMapRouter.solve_monolithic

        def solve_monolithic(router, *args, **kwargs):
            outcome = original_monolithic(router, *args, **kwargs)
            counts["slice.attempts"] += 1
            if outcome.result.status is RoutingStatus.UNSATISFIABLE:
                counts["slice.unsat"] += 1
            return outcome

        self._patch(satmap.SatMapRouter, "solve_monolithic", solve_monolithic)
        self._patch(satmap, "extract_solution",
                    self._timed("extract", satmap.extract_solution))
        self._patch(satmap, "build_routed_circuit",
                    self._timed("extract", satmap.build_routed_circuit))
        self._patch(protocol, "verify_routing",
                    self._timed("verify", protocol.verify_routing))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self, route_wall: float, results: list) -> dict:
        """Per-layer figures for a traced pass of ``route()`` calls."""
        s = self.seconds
        layers = s["encode"] + s["solve"] + s["extract"] + s["verify"]
        stage_sum = sum(sum(result.stage_timings.values())
                        for result in results if result is not None)
        slices = sum(result.num_slices for result in results if result is not None)
        backtracks = sum(result.backtracks for result in results if result is not None)
        attempts = self.counts["slice.attempts"]
        return {
            "route.wall_s": route_wall,
            "encode.s": s["encode"],
            "encode.calls": self.counts["encode.calls"],
            "encode.hard_clauses": self.counts["encode.hard_clauses"],
            "encode.clauses_per_s": (self.counts["encode.hard_clauses"] / s["encode"]
                                     if s["encode"] else 0.0),
            "solve.s": s["solve"],
            "solve.calls": self.counts["solve.calls"],
            "solve.sat_calls": self.counts["solve.sat_calls"],
            "solve.conflicts": self.counts["solve.conflicts"],
            "solve.propagations": self.counts["solve.propagations"],
            "slice.attempts": attempts,
            "slice.backtracks": backtracks,
            "slice.escalations": self.counts["slice.unsat"] - backtracks,
            "slice.useful_ratio": slices / attempts if attempts else 0.0,
            "extract.s": s["extract"],
            "verify.s": s["verify"],
            "route.other_s": route_wall - layers,
            "stage_timings.unaccounted_s":
                s["encode"] + s["solve"] + s["extract"] - stage_sum,
        }


class IpcMeter:
    """Pickled size of each job and outcome crossing ``execute_job``.

    Wraps ``repro.service.pool.execute_job`` (what a pool worker runs) so a
    serial-mode service reports the bytes a process pool would move.
    """

    def __init__(self) -> None:
        self.sizes: list[int] = []
        self._original = None

    def __enter__(self) -> "IpcMeter":
        import repro.service.pool as pool

        self._original = pool.execute_job
        original = self._original

        def execute_job(job, time_budget, fallback=True):
            outcome = original(job, time_budget, fallback)
            self.sizes.append(len(pickle.dumps((job, time_budget, fallback)))
                              + len(pickle.dumps(outcome)))
            return outcome

        pool.execute_job = execute_job
        return self

    def __exit__(self, *exc_info) -> None:
        import repro.service.pool as pool

        pool.execute_job = self._original


def cache_replay(pairs: list, directory: str | None = None) -> tuple[float, float]:
    """Median seconds of ``ResultCache.put`` then ``get`` over ``(job, result)``."""
    from repro.service import ResultCache

    cache = ResultCache(directory=directory)
    puts, gets = [], []
    for job, result in pairs:
        started = time.perf_counter()
        cache.put(job, result)
        puts.append(time.perf_counter() - started)
    if directory is not None:
        cache.clear_memory()  # so the disk cache really reads its files
    for job, _ in pairs:
        started = time.perf_counter()
        cache.get(job)
        gets.append(time.perf_counter() - started)
    return median(gets), median(puts)
