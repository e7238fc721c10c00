"""Persistent solve sessions and streaming clause ingestion.

A :class:`SatSession` keeps one CDCL solver alive across an arbitrary
number of ``solve()`` calls, so no SAT call pays to rebuild a solver and
replay every hard clause into it: hard clauses are streamed in exactly once,
and everything the solver learns -- learnt clauses, VSIDS activity, saved
phases -- survives between calls, so related solves (the MaxSAT refinement
loop, slicing backtrack re-solves) get faster as the session warms up.

Clauses arrive one at a time (``add_hard``) or a whole constraint family at
once as a flat zero-terminated int32 buffer (``add_flat``, see
:mod:`repro.sat.flat`), which the native core ingests in a single call.  The
MaxSAT search feeds a session from its :class:`repro.maxsat.wcnf.WcnfBuilder`
with :meth:`~repro.maxsat.wcnf.WcnfBuilder.stream_hard`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sat.backends import create_solver, resolve_backend
from repro.sat.solver import SolveResult


@dataclass
class SessionStats:
    """Counters describing what a session has ingested."""

    clauses_streamed: int = 0


class SatSession:
    """A persistent, reusable CDCL solving session.

    The session is a thin stateful wrapper over one long-lived
    :class:`SatSolver`.  It tracks how many clauses were streamed into it
    and how much learnt knowledge is being retained -- the numbers a
    routing result reports to make incremental reuse observable.
    """

    def __init__(self, backend: str | None = None, **solver_kwargs) -> None:
        #: The concrete solve core in use ("python" or "native"), resolved
        #: once at construction: explicit arg > $REPRO_SAT_BACKEND > auto.
        self.backend = resolve_backend(backend)
        self.solver = create_solver(self.backend, **solver_kwargs)
        self.stats = SessionStats()

    # ------------------------------------------------------------ ingestion

    @property
    def num_vars(self) -> int:
        return self.solver.num_vars

    def ensure_vars(self, max_var: int) -> None:
        """Make sure all variables up to ``max_var`` exist."""
        self.solver.ensure_vars(max_var)

    def add_hard(self, clause: list[int]) -> bool:
        """Stream one hard clause into the live solver."""
        self.stats.clauses_streamed += 1
        return self.solver.add_clause(clause)

    def add_flat(self, buffer) -> int:
        """Stream a flat buffer of hard clauses into the solver in one call."""
        count = self.solver.add_flat(buffer)
        self.stats.clauses_streamed += count
        return count

    # -------------------------------------------------------------- solving

    def solve(
        self,
        assumptions: list[int] | None = None,
        time_budget: float | None = None,
        conflict_budget: int | None = None,
    ) -> SolveResult:
        """Solve the streamed formula under optional assumptions and budgets."""
        return self.solver.solve(assumptions=assumptions,
                                 time_budget=time_budget,
                                 conflict_budget=conflict_budget)

    # -------------------------------------------------------------- queries

    @property
    def ok(self) -> bool:
        """``False`` once the streamed formula is root-level unsatisfiable."""
        return self.solver.ok

    @property
    def learnt_clauses_retained(self) -> int:
        """Learnt clauses currently alive in the session's solver."""
        return self.solver.num_learnt()

    def solver_stats(self) -> dict:
        """The underlying solver's cumulative depth counters, as a dict."""
        return self.solver.stats.as_dict()
