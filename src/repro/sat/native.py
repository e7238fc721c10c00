"""Python driver for the compiled CDCL core.

:class:`NativeSatSolver` exposes the exact interface of
:class:`repro.sat.solver.SatSolver` — ``new_var`` / ``ensure_vars`` /
``add_clause`` / ``solve(assumptions, time_budget, conflict_budget)`` /
``stats`` / ``ok`` — over the C extension :mod:`repro.sat._native.core`.

The C side only runs one restart *window* at a time
(``core.search(max_conflicts, conflict_budget, time_budget)``); this
wrapper owns the Luby restart schedule, the per-call budget bookkeeping,
:class:`~repro.sat.solver.SolverStatistics`, and the per-solve ``sat-solve``
trace span, so everything the MaxSAT layer and the observability stack rely
on behaves identically to the pure-Python solver.  Returning to Python once
per restart costs nothing measurable (restarts are hundreds of conflicts
apart) and keeps anytime budgets honest even if the C core misbehaves.

Cross-checking (``REPRO_SAT_CROSSCHECK=1``) happens here rather than in
:class:`~repro.sat.session.SatSession` because MaxSAT strategies add
relaxation clauses directly through ``session.solver.add_clause``: the
wrapper records every ingested clause, evaluates each one under every SAT
model, and replays UNSAT verdicts through a fresh pure-Python solver.  A
disagreement raises :class:`CrossCheckError` — loudly, since it means one
of the cores is wrong.
"""

from __future__ import annotations

import time

from repro.obs import trace as obs_trace
from repro.sat import backends
from repro.sat._native import load_core
from repro.sat.flat import iter_clauses
from repro.sat.solver import (
    SolverStatistics,
    SolverStatus,
    SolveResult,
    luby,
)


class CrossCheckError(RuntimeError):
    """The native core and the pure-Python core disagreed on an answer."""


class NativeSatSolver:
    """CDCL solver backed by the compiled core; see module docstring."""

    def __init__(
        self,
        decay: float = 0.95,
        restart_base: int = 100,
        max_learnt_ratio: float = 0.4,
    ) -> None:
        core_module = load_core()
        if core_module is None:
            raise RuntimeError(
                "repro.sat._native.core is not importable; build it with "
                "`python setup.py build_ext --inplace` or use the python "
                "backend"
            )
        self._core = core_module.Core(decay=decay,
                                      max_learnt_ratio=max_learnt_ratio)
        self.restart_base = restart_base
        self.max_learnt_ratio = max_learnt_ratio
        self.stats = SolverStatistics(backend="native")
        self._counter_base = self._core.counters()
        self._crosscheck = backends.crosscheck_enabled()
        #: Every clause ever ingested, kept only in cross-check mode.
        self._clause_log: list[list[int]] = []
        self._unsat_crosschecked = False

    # ------------------------------------------------------------------ setup

    @property
    def num_vars(self) -> int:
        return self._core.num_vars

    @property
    def ok(self) -> bool:
        """``False`` once the formula is unsatisfiable at the root."""
        return self._core.ok

    def new_var(self) -> int:
        """Allocate and return a fresh variable index."""
        return self._core.new_var()

    def ensure_vars(self, max_var: int) -> None:
        """Make sure all variables up to ``max_var`` exist (bulk growth)."""
        self._core.ensure_vars(max_var)

    def add_clause(self, literals: list[int]) -> bool:
        """Add a clause; return ``False`` if the formula became trivially UNSAT."""
        if not self._core.ok:
            return False
        if self._crosscheck:
            self._clause_log.append(list(literals))
        return self._core.add_clause(literals)

    def add_clauses(self, clauses: list[list[int]]) -> bool:
        """Add several clauses; return ``False`` if any made the formula UNSAT."""
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    def add_flat(self, buffer) -> int:
        """Add every clause of a flat int32 buffer in one C call.

        Same simplification as :meth:`add_clause`, clause by clause; see
        :mod:`repro.sat.flat` for the format and its errors.  Returns the
        number of clauses in the buffer.
        """
        logging = self._crosscheck and self._core.ok
        count = self._core.add_clauses(buffer)
        if logging:
            self._clause_log.extend(iter_clauses(buffer))
        return count

    def export_clauses(self) -> list[int]:
        """Flat dump of the problem clauses, then each root unit as a clause."""
        return self._core.export_clauses()

    def num_clauses(self) -> int:
        return self._core.num_problem

    def num_learnt(self) -> int:
        """Learnt clauses currently retained in the database."""
        return self._core.num_learnt

    # --------------------------------------------------------------- search

    def solve(
        self,
        assumptions: list[int] | None = None,
        time_budget: float | None = None,
        conflict_budget: int | None = None,
    ) -> SolveResult:
        """Solve the current formula under optional assumptions and budgets."""
        start = time.monotonic()
        wall_start = time.time()
        base = self._counter_base
        assumptions = list(assumptions or [])

        def finish(status: SolverStatus, model=None, core=None) -> SolveResult:
            counters = self._core.counters()
            deltas = [now - before for now, before in zip(counters, base)]
            self._counter_base = counters
            self.stats.conflicts += deltas[0]
            self.stats.decisions += deltas[1]
            self.stats.propagations += deltas[2]
            self.stats.learnt_clauses += deltas[3]
            self.stats.deleted_clauses += deltas[4]
            result = SolveResult(
                status=status,
                model=model or {},
                core=core or [],
                conflicts=deltas[0],
                decisions=deltas[1],
                propagations=deltas[2],
                solve_time=time.monotonic() - start,
            )
            obs_trace.record(
                "sat-solve", start=wall_start, duration=result.solve_time,
                status=status.value, conflicts=result.conflicts,
                decisions=result.decisions, propagations=result.propagations,
                restarts=restarts_this_call,
                assumptions=len(assumptions),
                backend="native",
            )
            if self._crosscheck:
                self._verify(result, assumptions, time_budget,
                             conflict_budget)
            return result

        restarts_this_call = 0
        if not self._core.ok:
            return finish(SolverStatus.UNSAT)
        if self._core.prepare_solve(assumptions) == -1:
            return finish(SolverStatus.UNSAT)

        restart_round = 0
        conflicts_this_call = 0
        while True:
            window = self.restart_base * luby(restart_round + 1)
            if time_budget is None:
                time_remaining = -1.0
            else:
                time_remaining = max(0.0, time_budget
                                     - (time.monotonic() - start))
            if conflict_budget is None:
                conflicts_remaining = -1
            else:
                conflicts_remaining = conflict_budget - conflicts_this_call
            before = self._core.counters()[0]
            status = self._core.search(window, conflicts_remaining,
                                       time_remaining)
            conflicts_this_call += self._core.counters()[0] - before
            if status == 2:
                restart_round += 1
                restarts_this_call += 1
                self.stats.restarts += 1
                continue
            if status == 1:
                model_bytes = self._core.get_model()
                model = {variable: bool(model_bytes[variable])
                         for variable in range(1, self._core.num_vars + 1)}
                return finish(SolverStatus.SAT, model=model)
            if status == -1:
                return finish(SolverStatus.UNSAT)
            if status == -2:
                return finish(SolverStatus.UNSAT,
                              core=self._core.get_core())
            return finish(SolverStatus.UNKNOWN)

    # --------------------------------------------------------- cross-check

    def _verify(self, result: SolveResult, assumptions: list[int],
                time_budget: float | None,
                conflict_budget: int | None) -> None:
        """Replay a native answer through the pure-Python reference core."""
        if result.is_sat:
            model = result.model
            for clause in self._clause_log:
                satisfied = any(
                    model.get(abs(literal), False) is (literal > 0)
                    for literal in clause
                )
                if not satisfied:
                    raise CrossCheckError(
                        f"native model does not satisfy clause {clause}"
                    )
            for literal in assumptions:
                if model.get(abs(literal), False) is not (literal > 0):
                    raise CrossCheckError(
                        f"native model violates assumption {literal}"
                    )
            return
        if result.is_unsat:
            if not assumptions and self._unsat_crosschecked:
                return  # the root verdict cannot change; checked once
            from repro.sat.solver import SatSolver

            reference = SatSolver()
            for clause in self._clause_log:
                reference.add_clause(clause)
            replay = reference.solve(assumptions=assumptions or None,
                                     time_budget=time_budget,
                                     conflict_budget=conflict_budget)
            # An UNKNOWN replay (budget ran out first) is inconclusive, not
            # a disagreement: the reference core is much slower.
            if replay.is_sat:
                raise CrossCheckError(
                    "native said UNSAT but the python core found a model "
                    f"(assumptions={assumptions})"
                )
            if not assumptions and replay.is_unsat:
                self._unsat_crosschecked = True


__all__ = ["NativeSatSolver", "CrossCheckError"]
