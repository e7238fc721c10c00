"""The MaxSAT search: anytime linear SAT->UNSAT on a live solver.

:class:`MaxSatSolver` is what the SATMAP core (and the constraint-based
baselines) talk to.  It mirrors the interface SATMAP uses with
Open-WBO-Inc-MCS: hand over a weighted partial CNF, optionally a wall-clock
budget, and get back either an optimal model, the best model found before the
budget ran out, or a report that no model of the hard clauses was found.

The search is the one the paper relies on: the solver repeatedly asks the
underlying SAT solver for a model of the hard clauses, measures its cost
(total weight of falsified soft clauses), adds a bound "cost must be strictly
smaller", and repeats.  The last model found before the formula becomes
unsatisfiable is optimal.  Crucially, the loop can be interrupted by a time
budget at any point and still returns the best model seen so far -- this is
what makes the approach usable on circuits where the optimum is out of reach.

Each :class:`MaxSatSolver` drives one CDCL solver of its own (built by
:func:`repro.sat.create_solver`) for its whole life: the solver stays alive
across ``solve()`` calls, the builder's hard clauses stream in exactly once
(each call feeds only those added since the last, with
:meth:`~repro.maxsat.wcnf.WcnfBuilder.stream_hard`), the soft-clause
selectors and the totalizer bound structure are built exactly once, and cost
bounds are expressed as *assumptions* on totalizer outputs instead of
permanent unit clauses.  Repeated solves of the same builder (a slicing
backtrack re-solve under new ``assumptions``) therefore reuse the formula, the
relaxation, and everything the solver has learnt.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum

from repro.maxsat.cardinality import GeneralizedTotalizer, Totalizer
from repro.maxsat.wcnf import WcnfBuilder, clause_satisfied
from repro.sat.backends import create_solver
from repro.sat.solver import SolverStatus

#: How many soft clauses are relaxed between wall-clock budget checks.
_SELECTOR_BUDGET_STRIDE = 128

#: Weighted instances whose largest soft weight exceeds this get a bound
#: structure over weights clustered into ``1..MAX_BOUND_WEIGHT``.
MAX_BOUND_WEIGHT = 32


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
    """Weighted partial MaxSAT: model-improving linear search, totalizer bound.

    For weighted instances whose maximum soft weight exceeds
    :data:`MAX_BOUND_WEIGHT`, the bound structure is built over *clustered*
    weights (each weight rescaled into ``1..MAX_BOUND_WEIGHT``), the same
    approximation Open-WBO-Inc applies to large weighted instances.  Models
    are still compared by their true cost, but optimality is no longer
    claimed on termination because the coarse bound may hide a slightly
    better solution.  Instances with small weights are unaffected.

    Parameters
    ----------
    backend:
        The SAT core to drive (``python``, ``native`` or ``auto``; ``None``
        defers to ``$REPRO_SAT_BACKEND``), resolved once by
        :func:`~repro.sat.backends.create_solver`.  The solver, its streamed
        hard clauses and its learnt clauses survive between ``solve()``
        calls, and it is bound to the first builder it solves.
    """

    def __init__(self, *, backend: str | None = None) -> None:
        #: The live SAT solver (a ``SatSolver`` or ``NativeSatSolver``).
        self.session = create_solver(backend)
        #: The formula this solver answers for.  Streamed clauses are
        #: permanent, so one solver can only ever answer for one formula.
        self.builder: WcnfBuilder | None = None
        #: Words of the builder's hard clauses the solver already holds.
        self._loaded = 0
        #: Hard clauses of the builder streamed so far.
        self._hard_streamed = 0
        #: Relaxation clauses added for non-unit soft clauses.
        self._relaxed = 0
        self._weighted_selectors: list[tuple[int, int]] = []
        self._weighted = False
        self._approximate = False
        self._bound_weights: list[int] = []
        self._totalizer: Totalizer | None = None
        self._gte: GeneralizedTotalizer | None = None

    # ---------------------------------------------------------------- solve

    def solve(self, builder: WcnfBuilder, time_budget: float | None = None,
              assumptions: list[int] | None = None) -> MaxSatResult:
        """Solve ``builder`` under an optional wall-clock budget (seconds).

        ``assumptions`` are base literals assumed in every underlying SAT
        call; incremental callers use them to pin per-call context (e.g. a
        slice's inherited initial map) without mutating the formula.
        """
        if self.builder is None:
            self.builder = builder
        elif self.builder is not builder:
            raise ValueError(
                "a MaxSatSolver is bound to the first builder it solves (its "
                "solver permanently holds that formula's clauses); use a "
                "fresh MaxSatSolver for a different instance")
        # Feed the solver only the hard clauses it has not seen yet.  This
        # is ingestion, not search, so it does not spend the time budget.
        self._stream()
        start = time.monotonic()
        base_assumptions = list(assumptions or [])
        sat = self.session

        # Relax the soft clauses (budget-aware: large encodings can spend the
        # whole budget here, and the anytime contract must still hold).
        if not self._prepare_selectors(start, time_budget):
            return MaxSatResult(MaxSatStatus.UNKNOWN,
                                solve_time=time.monotonic() - start)

        remaining = self._remaining(start, time_budget)
        result = sat.solve(assumptions=base_assumptions, time_budget=remaining)
        sat_calls = 1
        if result.status is not SolverStatus.SAT:
            # UNSAT here means the hard clauses (under the base assumptions)
            # have no model, which is a definitive answer.  UNKNOWN means the
            # budget ran out.
            status = (MaxSatStatus.UNSATISFIABLE
                      if result.status is SolverStatus.UNSAT
                      else MaxSatStatus.UNKNOWN)
            return MaxSatResult(status, sat_calls=sat_calls,
                                solve_time=time.monotonic() - start)

        # Models are never mutated (native ones are read-only byte views),
        # so the best one is kept by reference.
        best_model = result.model
        best_cost = builder.cost_of_model(best_model)
        if best_cost == 0 or not builder.soft:
            return MaxSatResult(MaxSatStatus.OPTIMAL, best_cost, best_model,
                                sat_calls, time.monotonic() - start)

        # The bound structure can itself be expensive to build; if the budget
        # is already gone, settle for the first model (anytime behaviour).
        remaining = self._remaining(start, time_budget)
        if remaining is not None and remaining <= 0:
            return MaxSatResult(MaxSatStatus.SATISFIABLE, best_cost, best_model,
                                sat_calls, time.monotonic() - start)

        self._prepare_bound()

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
                               time_budget=remaining)
            sat_calls += 1
            if result.status is SolverStatus.SAT:
                cost = builder.cost_of_model(result.model)
                bound_cost = self._bound_cost(result.model, builder, self._bound_weights)
                if cost < best_cost:
                    best_cost = cost
                    best_model = result.model
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

        status = MaxSatStatus.OPTIMAL if optimal else MaxSatStatus.SATISFIABLE
        return MaxSatResult(status, best_cost, best_model, sat_calls,
                            time.monotonic() - start)

    @property
    def clauses_streamed(self) -> int:
        """Clauses fed to the solver: the builder's hard ones plus relaxations."""
        return self._hard_streamed + self._relaxed

    def _stream(self) -> None:
        """Feed the solver the builder's hard clauses it does not hold yet."""
        self._loaded = self.builder.stream_hard(self.session, self._loaded)
        self._hard_streamed = self.builder.num_hard

    # ----------------------------------------------------------- relaxation

    def _prepare_selectors(self, start: float, time_budget: float | None) -> bool:
        """Relax each soft clause with a selector; ``False`` if the budget died.

        The selector being true means the soft clause is (possibly) violated.
        Selectors are prepared once and reused: a second call with the same
        soft clauses skips straight through.  Budget expiry keeps the
        selectors already built, so a later call resumes from where this one
        stopped instead of re-relaxing (and duplicating) the prefix.  Once
        the bound structure covers the selectors the soft set is fixed: a
        soft set that shrank, or grew after the bound was built, raises
        ``ValueError``.  Relaxation clauses go straight to the solver, never
        into the builder: they are search scaffolding, not part of the
        instance, so exports and clause counts stay faithful.
        """
        builder = self.builder
        sat = self.session
        progress = len(self._weighted_selectors)
        total = len(builder.soft)
        if progress == total:
            return True
        if progress > total or self._totalizer is not None or self._gte is not None:
            raise ValueError(
                "the soft clauses of a solved builder cannot shrink, nor grow "
                "once the bound is built; use a fresh MaxSatSolver for a "
                "different objective")
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
                sat.ensure_vars(abs(selector))
            else:
                selector = builder.new_var()
                sat.ensure_vars(builder.num_vars)
                sat.add_clause(soft.literals + [selector])
                self._relaxed += 1
            self._weighted_selectors.append((selector, soft.weight))
        return True

    def _prepare_bound(self) -> None:
        """Build the totalizer bound structure once (its clauses are hard).

        Large weights are clustered so the generalized totalizer stays
        pseudo-polynomial in a small bound (Open-WBO-Inc's approximation).
        The structural clauses only *define* the output literals, so they are
        sound to keep in a live solver; the bounds themselves are assumed
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
        # The totalizer clauses went into the builder; streaming them also
        # declares its output variables to the solver.
        self._stream()

    def _bound_assumptions(self, best_bound_cost: int) -> list[int]:
        """Assumption literals asserting "bound cost strictly below the best"."""
        if self._weighted:
            assert self._gte is not None
            return self._gte.assumptions_for_weight_less_than(best_bound_cost)
        assert self._totalizer is not None
        return self._totalizer.assumption_for_at_most(best_bound_cost - 1)

    # ------------------------------------------------------------------ utils

    @staticmethod
    def _cluster_weights(weights: list[int]) -> list[int] | None:
        """Rescale weights into ``1..MAX_BOUND_WEIGHT`` when they are large.

        Returns ``None`` when no rescaling is needed (the bound is then exact).
        """
        if not weights:
            return None
        largest = max(weights)
        if largest <= MAX_BOUND_WEIGHT:
            return None
        scale = MAX_BOUND_WEIGHT / largest
        return [max(1, round(weight * scale)) for weight in weights]

    @staticmethod
    def _bound_cost(model: Mapping[int, bool], builder: WcnfBuilder,
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
