"""Persistent solve sessions and streaming clause ingestion.

The MaxSAT stack used to pay a rebuild tax on every SAT call: each strategy
constructed a fresh :class:`~repro.sat.solver.SatSolver` and replayed every
hard clause into it.  A :class:`SatSession` removes that tax by keeping one
CDCL solver alive across an arbitrary number of ``solve()`` calls: hard
clauses are streamed in exactly once, and everything the solver learns --
learnt clauses, VSIDS activity, saved phases -- survives between calls, so
related solves (the MaxSAT refinement loop, slicing backtrack re-solves) get
faster as the session warms up.

:class:`ClauseSink` is the structural protocol for "something clauses can be
streamed into": both :class:`SatSession` and
:class:`repro.maxsat.wcnf.WcnfBuilder` satisfy it, which lets the QMR encoder
emit clauses directly into a live solver while it encodes instead of
materialising a list that a strategy later copies back in.  Clauses arrive
one at a time (``add_hard``) or a whole constraint family at once as a flat
zero-terminated int32 buffer (``add_flat``, see :mod:`repro.sat.flat`),
which the native core ingests in a single call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.sat.backends import create_solver, resolve_backend
from repro.sat.solver import SolveResult


@runtime_checkable
class ClauseSink(Protocol):
    """Anything that can allocate variables and ingest streamed hard clauses."""

    def new_var(self) -> int:
        """Allocate and return a fresh variable index."""

    def ensure_vars(self, max_var: int) -> None:
        """Make sure all variables up to ``max_var`` exist."""

    def add_hard(self, clause: list[int]) -> None:
        """Ingest one hard clause."""

    def add_flat(self, buffer) -> int:
        """Ingest a zero-terminated int32 buffer of hard clauses.

        See :mod:`repro.sat.flat`; returns the number of clauses.
        """


@dataclass
class SessionStats:
    """Counters describing what a session has ingested and solved."""

    clauses_streamed: int = 0
    solve_calls: int = 0
    solve_time: float = 0.0


class SatSession:
    """A persistent, reusable CDCL solving session.

    The session is a thin stateful wrapper over one long-lived
    :class:`SatSolver`.  It satisfies :class:`ClauseSink`, so encoders and
    builders can stream clauses straight into it, and it tracks how many
    clauses were streamed, how many solve calls ran, and how much learnt
    knowledge is being retained -- the numbers the batch service's summary
    surfaces to make incremental reuse observable.
    """

    def __init__(self, backend: str | None = None, **solver_kwargs) -> None:
        self._solver_kwargs = dict(solver_kwargs)
        #: The concrete solve core in use ("python" or "native"), resolved
        #: once at construction: explicit arg > $REPRO_SAT_BACKEND > auto.
        self.backend = resolve_backend(backend)
        self.solver = create_solver(self.backend, **solver_kwargs)
        self.stats = SessionStats()
        #: Bumped by :meth:`reset`.  Attached builders compare it on sync so a
        #: reset session is re-fed the full formula instead of staying empty.
        self.generation = 0

    # ----------------------------------------------------------- ClauseSink

    @property
    def num_vars(self) -> int:
        return self.solver.num_vars

    def new_var(self) -> int:
        """Allocate and return a fresh variable index."""
        return self.solver.new_var()

    def ensure_vars(self, max_var: int) -> None:
        """Make sure all variables up to ``max_var`` exist."""
        self.solver.ensure_vars(max_var)

    def add_hard(self, clause: list[int]) -> bool:
        """Stream one hard clause into the live solver."""
        self.stats.clauses_streamed += 1
        return self.solver.add_clause(clause)

    # Alias so the session can stand in wherever a raw solver was expected.
    add_clause = add_hard

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
        start = time.monotonic()
        result = self.solver.solve(assumptions=assumptions,
                                   time_budget=time_budget,
                                   conflict_budget=conflict_budget)
        elapsed = time.monotonic() - start
        self.stats.solve_calls += 1
        self.stats.solve_time += elapsed
        return result

    # -------------------------------------------------------------- queries

    @property
    def ok(self) -> bool:
        """``False`` once the streamed formula is root-level unsatisfiable."""
        return self.solver.ok

    @property
    def learnt_clauses_retained(self) -> int:
        """Learnt clauses currently alive in the session's solver."""
        return self.solver.num_learnt()

    def describe(self) -> dict:
        """Flat summary used by telemetry and benchmark reports."""
        return {
            "backend": self.backend,
            "clauses_streamed": self.stats.clauses_streamed,
            "solve_calls": self.stats.solve_calls,
            "solve_time": self.stats.solve_time,
            "learnt_retained": self.learnt_clauses_retained,
            "num_vars": self.num_vars,
            "conflicts": self.solver.stats.conflicts,
            "propagations": self.solver.stats.propagations,
        }

    def solver_stats(self) -> dict:
        """The underlying solver's cumulative depth counters, as a dict."""
        return self.solver.stats.as_dict()

    def reset(self) -> None:
        """Discard all solver state and start an empty session.

        Streaming counters reset too: a reset session reports what the fresh
        solver has actually seen.  The generation bump makes any attached
        :class:`~repro.maxsat.wcnf.WcnfBuilder` restream its formula on the
        next sync, so the fresh solver never silently answers for an empty
        one.
        """
        self.solver = create_solver(self.backend, **self._solver_kwargs)
        self.stats = SessionStats()
        self.generation += 1
