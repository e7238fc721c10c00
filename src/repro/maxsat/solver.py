"""Facade over the MaxSAT search.

:class:`MaxSatSolver` is what the SATMAP core (and the constraint-based
baselines) talk to.  It mirrors the interface SATMAP uses with
Open-WBO-Inc-MCS: hand over a weighted partial CNF, optionally a wall-clock
budget, and get back either an optimal model, the best model found before the
budget ran out, or a report that no model of the hard clauses was found.  The
search behind it is the anytime linear SAT->UNSAT search of
:mod:`repro.maxsat.linear_search`.

The facade always solves on a :class:`~repro.sat.session.SatSession` (the
one it is given, or one of its own): the session's CDCL solver stays alive
across ``solve()`` calls, hard clauses stream in exactly once, and repeated
solves of the same builder (a slicing backtrack re-solve under new
``assumptions``) reuse the relaxation and everything the solver has learnt
instead of rebuilding.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum

from repro.maxsat.linear_search import LinearSearchSolver
from repro.maxsat.wcnf import WcnfBuilder
from repro.sat.session import SatSession


class MaxSatStatus(Enum):
    """Outcome classification of a MaxSAT call."""

    OPTIMAL = "optimal"
    SATISFIABLE = "satisfiable"  # a model was found but optimality is unproven
    UNSATISFIABLE = "unsatisfiable"  # the hard clauses have no model
    UNKNOWN = "unknown"  # no model found within the budget


@dataclass
class MaxSatResult:
    """Result of a MaxSAT call."""

    status: MaxSatStatus
    cost: int = -1
    model: Mapping[int, bool] = field(default_factory=dict)
    sat_calls: int = 0
    solve_time: float = 0.0

    @property
    def has_model(self) -> bool:
        return self.status in (MaxSatStatus.OPTIMAL, MaxSatStatus.SATISFIABLE)

    @property
    def is_optimal(self) -> bool:
        return self.status is MaxSatStatus.OPTIMAL


class MaxSatSolver:
    """Weighted partial MaxSAT solver: the anytime linear search.

    Parameters
    ----------
    session:
        The :class:`~repro.sat.session.SatSession` to solve on (a fresh
        ``SatSession()`` when omitted).  The underlying SAT solver, the
        streamed hard clauses and the learnt-clause database survive between
        ``solve()`` calls, and the facade is bound to the first builder it
        solves.
    """

    def __init__(self, *, session: SatSession | None = None) -> None:
        self.session = session if session is not None else SatSession()
        #: The search state (selectors + bound structure) bound to the
        #: session.  Streamed clauses are permanent, so one session can only
        #: ever answer for one formula.
        self._linear: LinearSearchSolver | None = None

    def solve(self, builder: WcnfBuilder, time_budget: float | None = None,
              assumptions: list[int] | None = None) -> MaxSatResult:
        """Solve ``builder`` under an optional wall-clock budget (seconds).

        ``assumptions`` are base literals assumed in every underlying SAT
        call; incremental callers use them to pin per-call context (e.g. a
        slice's inherited initial map) without mutating the formula.
        """
        outcome = self._linear_solver(builder).solve(time_budget=time_budget,
                                                     assumptions=assumptions)
        if outcome.found_model:
            status = MaxSatStatus.OPTIMAL if outcome.optimal else MaxSatStatus.SATISFIABLE
            return MaxSatResult(status, outcome.cost, outcome.model,
                                outcome.sat_calls, outcome.elapsed)
        if outcome.optimal:
            return MaxSatResult(MaxSatStatus.UNSATISFIABLE, -1, {},
                                outcome.sat_calls, outcome.elapsed)
        return MaxSatResult(MaxSatStatus.UNKNOWN, -1, {},
                            outcome.sat_calls, outcome.elapsed)

    def _linear_solver(self, builder: WcnfBuilder) -> LinearSearchSolver:
        """The search for ``builder``, bound to the session."""
        if self._linear is None:
            self._linear = LinearSearchSolver(builder, session=self.session)
        elif self._linear.builder is not builder:
            raise ValueError(
                "a session-backed MaxSatSolver is bound to the first "
                "builder it solves (the session permanently holds that "
                "formula's clauses); use a fresh session for a different "
                "instance")
        return self._linear
