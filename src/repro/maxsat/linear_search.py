"""Anytime linear SAT->UNSAT MaxSAT search.

This is the strategy SATMAP relies on in the paper (via Open-WBO-Inc-MCS): the
solver repeatedly asks the underlying SAT solver for a model of the hard
clauses, measures its cost (total weight of falsified soft clauses), adds a
bound "cost must be strictly smaller", and repeats.  The last model found
before the formula becomes unsatisfiable is optimal.  Crucially, the loop can
be interrupted by a time budget at any point and still returns the best model
seen so far -- this is what makes the approach usable on circuits where the
optimum is out of reach.

Two execution modes share one code path:

* **From scratch** (no session): every ``solve()`` call builds a fresh
  :class:`~repro.sat.solver.SatSolver`, loads the hard clauses, relaxes the
  soft clauses, and discards everything at the end -- the original behaviour.
* **Session-backed**: with a :class:`~repro.sat.session.SatSession` the hard
  clauses stream into one live solver exactly once, the soft-clause selectors
  and the totalizer bound structure are built exactly once, and cost bounds
  are expressed as *assumptions* on totalizer outputs instead of permanent
  unit clauses.  Repeated ``solve()`` calls (with different base assumptions,
  e.g. a slicing re-solve under a new pinned initial map) therefore reuse the
  formula, the relaxation, and everything the solver has learnt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.maxsat.cardinality import GeneralizedTotalizer, Totalizer
from repro.maxsat.wcnf import WcnfBuilder, clause_satisfied
from repro.sat.session import SatSession
from repro.sat.backends import create_solver
from repro.sat.solver import SatSolver, SolverStatus

#: How many soft clauses are relaxed between wall-clock budget checks.
_SELECTOR_BUDGET_STRIDE = 128


@dataclass
class LinearSearchOutcome:
    """Raw outcome of a linear-search run."""

    found_model: bool
    optimal: bool
    cost: int
    model: dict[int, bool]
    sat_calls: int
    elapsed: float


class LinearSearchSolver:
    """Model-improving linear search with a totalizer-based bound.

    For weighted instances whose maximum soft weight exceeds
    ``max_bound_weight``, the bound structure is built over *clustered*
    weights (each weight rescaled into ``1..max_bound_weight``), the same
    approximation Open-WBO-Inc applies to large weighted instances.  Models
    are still compared by their true cost, but optimality is no longer
    claimed on termination because the coarse bound may hide a slightly
    better solution.  Instances with small weights are unaffected.
    """

    def __init__(self, builder: WcnfBuilder, max_bound_weight: int = 32,
                 session: SatSession | None = None,
                 solver_backend: str | None = None) -> None:
        if max_bound_weight < 1:
            raise ValueError("max_bound_weight must be at least 1")
        self.builder = builder
        self.max_bound_weight = max_bound_weight
        self.session = session
        #: Solve core for the session-less path (None: env / auto); when a
        #: session is present its own backend wins.
        self.solver_backend = solver_backend
        self._reset_state()

    def _reset_state(self) -> None:
        self._sat: SatSolver | None = None
        self._loaded_hard = 0
        self._weighted_selectors: list[tuple[int, int]] = []
        self._weighted = False
        self._approximate = False
        self._bound_weights: list[int] = []
        self._totalizer: Totalizer | None = None
        self._gte: GeneralizedTotalizer | None = None
        self._session_generation = (self.session.generation
                                    if self.session is not None else 0)

    # ---------------------------------------------------------------- solve

    def solve(
        self,
        time_budget: float | None = None,
        per_call_conflict_budget: int | None = None,
        assumptions: list[int] | None = None,
    ) -> LinearSearchOutcome:
        """Run the search under an optional wall-clock budget (seconds).

        ``assumptions`` are base literals assumed in every SAT call of this
        run; session-backed callers use them to pin per-call context (a
        slice's inherited initial map) without touching the formula.
        """
        start = time.monotonic()
        builder = self.builder
        base_assumptions = list(assumptions or [])
        if self.session is None:
            # From-scratch semantics: nothing survives between calls.
            self._reset_state()
        sat = self._attach_solver()

        # Relax the soft clauses (budget-aware: large encodings can spend the
        # whole budget here, and the anytime contract must still hold).
        if not self._prepare_selectors(start, time_budget):
            return LinearSearchOutcome(
                found_model=False, optimal=False, cost=-1, model={},
                sat_calls=0, elapsed=time.monotonic() - start)

        remaining = self._remaining(start, time_budget)
        result = sat.solve(assumptions=base_assumptions, time_budget=remaining,
                           conflict_budget=per_call_conflict_budget)
        sat_calls = 1
        if result.status is not SolverStatus.SAT:
            # UNSAT here means the hard clauses (under the base assumptions)
            # have no model, which is a definitive answer.  UNKNOWN means the
            # budget ran out.
            return LinearSearchOutcome(
                found_model=False,
                optimal=result.status is SolverStatus.UNSAT,
                cost=-1,
                model={},
                sat_calls=sat_calls,
                elapsed=time.monotonic() - start,
            )

        best_model = dict(result.model)
        best_cost = builder.cost_of_model(best_model)
        if best_cost == 0 or not builder.soft:
            return LinearSearchOutcome(True, True, best_cost, best_model, sat_calls,
                                       time.monotonic() - start)

        # The bound structure can itself be expensive to build; if the budget
        # is already gone, settle for the first model (anytime behaviour).
        remaining = self._remaining(start, time_budget)
        if remaining is not None and remaining <= 0:
            return LinearSearchOutcome(True, False, best_cost, best_model, sat_calls,
                                       time.monotonic() - start)

        self._prepare_bound(sat)

        best_bound_cost = self._bound_cost(best_model, builder, self._bound_weights)
        optimal = False
        while True:
            if best_bound_cost == 0:
                # All soft obligations the bound can see are satisfied.
                optimal = best_cost == 0
                break
            # Tighten: total selector weight must be strictly below the bound
            # cost of the best model so far.  The bound is an assumption, so
            # a later run on the same live solver starts unbounded again; the
            # formula itself no longer grows inside this loop.
            bound_assumptions = self._bound_assumptions(best_bound_cost)

            remaining = self._remaining(start, time_budget)
            if remaining is not None and remaining <= 0:
                break
            result = sat.solve(assumptions=base_assumptions + bound_assumptions,
                               time_budget=remaining,
                               conflict_budget=per_call_conflict_budget)
            sat_calls += 1
            if result.status is SolverStatus.SAT:
                cost = builder.cost_of_model(result.model)
                bound_cost = self._bound_cost(result.model, builder, self._bound_weights)
                if cost < best_cost:
                    best_cost = cost
                    best_model = dict(result.model)
                if bound_cost >= best_bound_cost:
                    # The bound forces strictly decreasing bound cost; if it
                    # did not decrease something is inconsistent, so stop
                    # rather than loop.
                    break
                best_bound_cost = bound_cost
                if best_cost == 0:
                    optimal = True
                    break
            elif result.status is SolverStatus.UNSAT:
                optimal = not self._approximate
                break
            else:  # UNKNOWN: budget exhausted
                break

        return LinearSearchOutcome(
            found_model=True,
            optimal=optimal,
            cost=best_cost,
            model=best_model,
            sat_calls=sat_calls,
            elapsed=time.monotonic() - start,
        )

    # ------------------------------------------------------------ formula IO

    def _attach_solver(self) -> SatSolver:
        """The solver holding the hard clauses: session-backed or fresh."""
        if self.session is not None:
            if self.session.generation != self._session_generation:
                # The session was reset: its solver lost our relaxation
                # clauses, so the prepared selectors and bound structure are
                # meaningless.  Start over on the fresh solver.
                self._reset_state()
            # Stream (idempotently) through the builder: clauses the session
            # has already seen are not replayed.
            self.builder.attach_sink(self.session)
            self._sat = self.session.solver
            return self._sat
        if self._sat is None:
            self._sat = create_solver(self.solver_backend)
            self._loaded_hard = self.builder.stream_hard(self._sat)
        return self._sat

    def _sync_hard_clauses(self, sat: SatSolver, builder: WcnfBuilder) -> None:
        """Feed hard clauses added to the builder since the last sync."""
        if self.session is not None:
            builder.sync_sink()
            return
        self._loaded_hard = builder.stream_hard(sat, self._loaded_hard)

    def _add_relaxation_clause(self, sat: SatSolver, clause: list[int]) -> None:
        """Selector relaxation clauses go straight to the solver.

        They are search scaffolding, not part of the instance, so they never
        enter the builder's hard clauses (keeping exports and clause counts
        faithful).
        """
        if self.session is not None:
            self.session.ensure_vars(self.builder.num_vars)
            self.session.add_hard(clause)
        else:
            sat.ensure_vars(self.builder.num_vars)
            sat.add_clause(clause)

    # ----------------------------------------------------------- relaxation

    def _prepare_selectors(self, start: float, time_budget: float | None) -> bool:
        """Relax each soft clause with a selector; ``False`` if the budget died.

        The selector being true means the soft clause is (possibly) violated.
        Session-backed runs prepare once and reuse: a second call with the
        same soft clauses skips straight through.  Budget expiry keeps the
        selectors already built, so a later call resumes from where this one
        stopped instead of re-relaxing (and duplicating) the prefix.
        """
        builder = self.builder
        sat = self._sat
        progress = len(self._weighted_selectors)
        total = len(builder.soft)
        if progress == total:
            return True
        if progress > total:
            # The soft set shrank or was rewritten under a prepared session:
            # rebuild the relaxation from scratch.  The old selectors and
            # bound structure become inert (their outputs are never assumed
            # again).
            self._weighted_selectors = []
            progress = 0
        if self._totalizer is not None or self._gte is not None:
            # The bound structure covered the old selector set; new soft
            # clauses mean it no longer bounds the full objective.
            self._totalizer = None
            self._gte = None
            self._bound_weights = []
        for index in range(progress, total):
            if (index - progress) % _SELECTOR_BUDGET_STRIDE == 0:
                remaining = self._remaining(start, time_budget)
                if remaining is not None and remaining <= 0:
                    # Anytime contract: give up cleanly, keep the progress.
                    return False
            soft = builder.soft[index]
            if len(soft.literals) == 1:
                # For unit soft clauses the negation of the literal is its own
                # selector; no auxiliary variable or clause is needed.
                selector = -soft.literals[0]
                if self.session is not None:
                    self.session.ensure_vars(abs(selector))
                else:
                    sat.ensure_vars(abs(selector))
            else:
                selector = builder.new_var()
                self._add_relaxation_clause(sat, soft.literals + [selector])
            self._weighted_selectors.append((selector, soft.weight))
        return True

    def _prepare_bound(self, sat: SatSolver) -> None:
        """Build the totalizer bound structure once (its clauses are hard).

        Large weights are clustered so the generalized totalizer stays
        pseudo-polynomial in a small bound (Open-WBO-Inc's approximation).
        The structural clauses only *define* the output literals, so they are
        sound to keep in a live session; the bounds themselves are assumed
        per call.
        """
        if self._totalizer is not None or self._gte is not None:
            return
        builder = self.builder
        weighted_selectors = self._weighted_selectors
        self._weighted = builder.is_weighted()
        scaled_weights = self._cluster_weights([w for _, w in weighted_selectors])
        self._approximate = scaled_weights is not None
        if self._weighted:
            self._bound_weights = (scaled_weights if self._approximate
                                   else [w for _, w in weighted_selectors])
            self._gte = GeneralizedTotalizer(
                builder,
                [(sel, weight) for (sel, _), weight
                 in zip(weighted_selectors, self._bound_weights)])
        else:
            self._bound_weights = [1] * len(weighted_selectors)
            self._totalizer = Totalizer(builder,
                                        [sel for sel, _ in weighted_selectors])
        self._sync_hard_clauses(sat, builder)

    def _bound_assumptions(self, best_bound_cost: int) -> list[int]:
        """Assumption literals asserting "bound cost strictly below the best"."""
        if self._weighted:
            assert self._gte is not None
            return self._gte.assumptions_for_weight_less_than(best_bound_cost)
        assert self._totalizer is not None
        return self._totalizer.assumption_for_at_most(best_bound_cost - 1)

    # ------------------------------------------------------------------ utils

    def _cluster_weights(self, weights: list[int]) -> list[int] | None:
        """Rescale weights into ``1..max_bound_weight`` when they are large.

        Returns ``None`` when no rescaling is needed (the bound is then exact).
        """
        if not weights:
            return None
        largest = max(weights)
        if largest <= self.max_bound_weight:
            return None
        scale = self.max_bound_weight / largest
        return [max(1, round(weight * scale)) for weight in weights]

    @staticmethod
    def _bound_cost(model: dict[int, bool], builder: WcnfBuilder,
                    bound_weights: list[int]) -> int:
        """Cost of ``model`` as the bound structure measures it."""
        total = 0
        for soft, weight in zip(builder.soft, bound_weights):
            if not clause_satisfied(soft.literals, model):
                total += weight
        return total

    @staticmethod
    def _remaining(start: float, time_budget: float | None) -> float | None:
        if time_budget is None:
            return None
        return time_budget - (time.monotonic() - start)
