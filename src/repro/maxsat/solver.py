"""Facade over the MaxSAT strategies.

:class:`MaxSatSolver` is what the SATMAP core (and the constraint-based
baselines) talk to.  It mirrors the interface SATMAP uses with
Open-WBO-Inc-MCS: hand over a weighted partial CNF, optionally a wall-clock
budget, and get back either an optimal model, the best model found before the
budget ran out, or a report that no model of the hard clauses was found.

Construct the facade with a :class:`~repro.sat.session.SatSession` to make it
*incremental*: the session's CDCL solver stays alive across ``solve()``
calls, hard clauses stream in exactly once, and repeated solves of the same
builder (a slicing backtrack re-solve under new ``assumptions``) reuse the
relaxation and everything the solver has learnt instead of rebuilding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.maxsat.core_guided import FuMalikSolver
from repro.maxsat.linear_search import LinearSearchSolver
from repro.maxsat.rc2 import OllSolver
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
    """Weighted partial MaxSAT solver with selectable strategy.

    Parameters
    ----------
    strategy:
        ``"linear"`` (default) for the anytime linear SAT->UNSAT search that
        mirrors Open-WBO-Inc-MCS, ``"core-guided"`` for Fu-Malik (unweighted
        only), or ``"rc2"`` for the weighted OLL algorithm.
    session:
        Optional persistent :class:`~repro.sat.session.SatSession`.  With a
        session the underlying SAT solver, the streamed hard clauses, and the
        learnt-clause database survive between ``solve()`` calls.
    """

    STRATEGIES = ("linear", "core-guided", "rc2")

    def __init__(self, strategy: str = "linear",
                 session: SatSession | None = None,
                 solver_backend: str | None = None) -> None:
        if strategy not in self.STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {self.STRATEGIES}")
        self.strategy = strategy
        self.session = session
        #: Solve core used by session-less strategies (python | native |
        #: auto | None).  A session brings its own solver, so this only
        #: matters for the non-incremental path.
        self.solver_backend = solver_backend
        #: Per-builder linear-search state (selectors + bound structure) kept
        #: alive between calls when a session is present.
        self._linear: LinearSearchSolver | None = None
        #: The builder a session-backed facade is bound to.  Streamed clauses
        #: are permanent, so one session can only ever answer for one formula.
        self._bound_builder: WcnfBuilder | None = None

    def solve(self, builder: WcnfBuilder, time_budget: float | None = None,
              assumptions: list[int] | None = None) -> MaxSatResult:
        """Solve ``builder`` under an optional wall-clock budget (seconds).

        ``assumptions`` are base literals assumed in every underlying SAT
        call; incremental callers use them to pin per-call context (e.g. a
        slice's inherited initial map) without mutating the formula.
        """
        if self.session is not None:
            if self._bound_builder is None:
                self._bound_builder = builder
            elif self._bound_builder is not builder:
                raise ValueError(
                    "a session-backed MaxSatSolver is bound to the first "
                    "builder it solves (the session permanently holds that "
                    "formula's clauses); use a fresh session for a different "
                    "instance")
        strategy = self.strategy
        if strategy == "core-guided" and builder.is_weighted():
            strategy = "linear"

        if strategy == "rc2":
            outcome = OllSolver(builder, session=self.session,
                                solver_backend=self.solver_backend).solve(
                time_budget=time_budget, assumptions=assumptions)
            if outcome.found_model:
                return MaxSatResult(MaxSatStatus.OPTIMAL, outcome.cost, outcome.model,
                                    outcome.sat_calls, outcome.elapsed)
            if outcome.optimal and outcome.cost == -1:
                return MaxSatResult(MaxSatStatus.UNSATISFIABLE, -1, {},
                                    outcome.sat_calls, outcome.elapsed)
            return MaxSatResult(MaxSatStatus.UNKNOWN, -1, {},
                                outcome.sat_calls, outcome.elapsed)

        if strategy == "core-guided":
            outcome = FuMalikSolver(builder, session=self.session,
                                    solver_backend=self.solver_backend).solve(
                time_budget=time_budget, assumptions=assumptions)
            if outcome.found_model:
                return MaxSatResult(MaxSatStatus.OPTIMAL, outcome.cost, outcome.model,
                                    outcome.sat_calls, outcome.elapsed)
            if outcome.optimal and outcome.cost == -1:
                return MaxSatResult(MaxSatStatus.UNSATISFIABLE, -1, {},
                                    outcome.sat_calls, outcome.elapsed)
            return MaxSatResult(MaxSatStatus.UNKNOWN, -1, {},
                                outcome.sat_calls, outcome.elapsed)

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
        """The (cached, when incremental) linear-search state for ``builder``."""
        if self.session is None:
            return LinearSearchSolver(builder,
                                      solver_backend=self.solver_backend)
        if self._linear is None or self._linear.builder is not builder:
            self._linear = LinearSearchSolver(builder, session=self.session)
        return self._linear
