"""OLL-style core-guided MaxSAT (the algorithm behind RC2 / MSCG).

The linear-search strategy mirrors Open-WBO-Inc-MCS and is SATMAP's default;
Fu-Malik covers small unweighted instances.  This module adds the third major
family of MaxSAT algorithms -- OLL (Morgado, Dodaro, Marques-Silva 2014),
popularised by the RC2 solver -- which handles *weighted* instances natively
and tends to win when the optimum is far from zero.

The algorithm maintains a weight for every active selector (a literal whose
truth means "this soft obligation was violated").  Each UNSAT core lowers the
weights of the selectors in the core by the core's minimum weight, adds that
minimum to the lower bound, and introduces a totalizer over the core whose
higher outputs ("at least two of these were violated", "at least three", ...)
become new weighted selectors.  When the assumptions become satisfiable the
lower bound equals the optimum.

OLL proves optimality from below, so unlike the linear search it produces no
intermediate models -- it is exact-or-nothing under a time budget.  The
:class:`~repro.maxsat.solver.MaxSatSolver` facade exposes it as the ``"rc2"``
strategy, used by the MaxSAT-strategy ablation benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.maxsat.cardinality import Totalizer
from repro.maxsat.wcnf import WcnfBuilder
from repro.sat.session import SatSession
from repro.sat.backends import create_solver
from repro.sat.solver import SatSolver, SolverStatus


@dataclass
class OllOutcome:
    """Raw outcome of an OLL run."""

    found_model: bool
    optimal: bool
    cost: int
    model: dict[int, bool]
    sat_calls: int
    cores: int
    elapsed: float


class OllSolver:
    """Weighted core-guided MaxSAT via the OLL algorithm.

    With a :class:`~repro.sat.session.SatSession` the hard clauses stream into
    the live solver once (through the builder's attached sink) and learnt
    clauses survive the whole core-extraction loop; the per-call selector
    relaxation is recreated fresh on every run, which keeps repeated runs on
    one session sound (stale selectors are simply never assumed again) but
    grows the session by O(#soft) inert scaffolding clauses per run -- for
    workloads that re-solve one session many times (slicing backtracks),
    prefer the ``"linear"`` strategy, whose relaxation is built once.
    """

    def __init__(self, builder: WcnfBuilder,
                 session: SatSession | None = None,
                 solver_backend: str | None = None) -> None:
        self.builder = builder
        self.session = session
        self.solver_backend = solver_backend

    def solve(self, time_budget: float | None = None,
              assumptions: list[int] | None = None) -> OllOutcome:
        """Run OLL to optimality or until the wall-clock budget expires."""
        start = time.monotonic()
        builder = self.builder
        base_assumptions = list(assumptions or [])

        if self.session is not None:
            builder.attach_sink(self.session)
            sat = self.session.solver
        else:
            sat = create_solver(self.solver_backend)
            builder.stream_hard(sat)

        # Relax every soft clause with a selector whose truth means "violated".
        weights: dict[int, int] = {}
        for soft in builder.soft:
            if len(soft.literals) == 1:
                selector = -soft.literals[0]
                sat.ensure_vars(abs(selector))
            else:
                selector = builder.new_var()
                sat.ensure_vars(builder.num_vars)
                sat.add_clause(soft.literals + [selector])
            weights[selector] = weights.get(selector, 0) + soft.weight

        lower_bound = 0
        sat_calls = 0
        cores = 0

        while True:
            remaining = None
            if time_budget is not None:
                remaining = time_budget - (time.monotonic() - start)
                if remaining <= 0:
                    return OllOutcome(False, False, lower_bound, {}, sat_calls, cores,
                                      time.monotonic() - start)
            assumption_literals = base_assumptions + [
                -selector for selector, weight in sorted(weights.items())
                if weight > 0]
            result = sat.solve(assumptions=assumption_literals, time_budget=remaining)
            sat_calls += 1

            if result.status is SolverStatus.SAT:
                cost = builder.cost_of_model(result.model)
                return OllOutcome(
                    found_model=True,
                    optimal=True,
                    cost=cost,
                    model=dict(result.model),
                    sat_calls=sat_calls,
                    cores=cores,
                    elapsed=time.monotonic() - start,
                )
            if result.status is SolverStatus.UNKNOWN:
                return OllOutcome(False, False, lower_bound, {}, sat_calls, cores,
                                  time.monotonic() - start)

            core_selectors = sorted({-literal for literal in result.core})
            core_selectors = [selector for selector in core_selectors
                              if weights.get(selector, 0) > 0]
            if not core_selectors:
                # The hard clauses alone are unsatisfiable.
                return OllOutcome(False, True, -1, {}, sat_calls, cores,
                                  time.monotonic() - start)

            cores += 1
            core_weight = min(weights[selector] for selector in core_selectors)
            lower_bound += core_weight
            for selector in core_selectors:
                weights[selector] -= core_weight

            if len(core_selectors) > 1:
                # "At least one violated" is paid for by the lower bound; every
                # additional violation within this core costs core_weight more,
                # which is exactly what soft-ening the higher totalizer outputs
                # expresses.
                hard_before = builder.hard_words
                totalizer = Totalizer(builder, core_selectors)
                if self.session is None:
                    builder.stream_hard(sat, hard_before)
                else:
                    # The attached session already received these via streaming.
                    sat.ensure_vars(builder.num_vars)
                for output in totalizer.outputs[1:]:
                    weights[output] = weights.get(output, 0) + core_weight
            # Cores of size one need no totalizer: the selector's weight simply
            # drops (possibly to zero, retiring it from the assumptions).
