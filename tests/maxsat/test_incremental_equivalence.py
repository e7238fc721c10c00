"""Incremental-equivalence tests for the MaxSAT layer.

Reusing one session (one live CDCL solver, streamed clauses,
assumption-expressed bounds) must return the same costs and verdicts as
solving on a fresh session, on randomized WCNF instances -- including when
one session serves several solves, which is what the slicing relaxation
does on a backtrack.
"""

import random

from repro.maxsat.linear_search import LinearSearchSolver
from repro.maxsat.solver import MaxSatSolver, MaxSatStatus
from repro.maxsat.wcnf import WcnfBuilder
from repro.sat import SatSession


def random_wcnf(rng: random.Random, weighted: bool) -> WcnfBuilder:
    """A small random weighted-partial instance (hard clauses kept SAT-ish)."""
    builder = WcnfBuilder()
    num_vars = rng.randint(4, 9)
    builder.new_vars(num_vars)
    for _ in range(rng.randint(3, 18)):
        width = rng.randint(2, 3)
        variables = rng.sample(range(1, num_vars + 1), width)
        builder.add_hard([v if rng.random() < 0.5 else -v for v in variables])
    for _ in range(rng.randint(1, 8)):
        width = rng.randint(1, 2)
        variables = rng.sample(range(1, num_vars + 1), width)
        clause = [v if rng.random() < 0.5 else -v for v in variables]
        builder.add_soft(clause, weight=rng.randint(1, 5) if weighted else 1)
    return builder


def clone(builder: WcnfBuilder) -> WcnfBuilder:
    copy = WcnfBuilder()
    copy.new_vars(builder.num_vars)
    for clause in builder.to_dimacs().hard:
        copy.add_hard(list(clause))
    for soft in builder.soft:
        copy.add_soft(list(soft.literals), soft.weight)
    return copy


class TestSessionMatchesFromScratch:
    def test_linear_search_costs_match(self):
        for seed in range(15):
            rng = random.Random(300 + seed)
            weighted = seed % 2 == 0
            reference = random_wcnf(rng, weighted)
            scratch = LinearSearchSolver(clone(reference)).solve()
            # A second run on the warm session reuses the selectors, the
            # bound structure and everything the first run learnt.
            warm = LinearSearchSolver(clone(reference), session=SatSession())
            warm.solve()
            incremental = warm.solve()
            assert scratch.found_model == incremental.found_model, f"seed {seed}"
            if scratch.found_model:
                assert scratch.cost == incremental.cost, f"seed {seed}"
                assert scratch.optimal == incremental.optimal, f"seed {seed}"

    def test_facade_statuses_match(self):
        """A solve under assumptions leaves no trace on the next plain solve."""
        for seed in range(8):
            rng = random.Random(900 + seed)
            reference = random_wcnf(rng, weighted=False)
            scratch = MaxSatSolver().solve(clone(reference))
            solver = MaxSatSolver(session=SatSession())
            builder = clone(reference)
            solver.solve(builder, assumptions=[1, -2])
            incremental = solver.solve(builder)
            assert scratch.status is incremental.status, f"seed {seed}"
            if scratch.has_model:
                assert scratch.cost == incremental.cost, f"seed {seed}"

    def test_session_reuse_across_repeated_solves(self):
        """Re-solving on one warm session matches a fresh from-scratch solve."""
        for seed in range(10):
            rng = random.Random(4000 + seed)
            reference = random_wcnf(rng, weighted=seed % 2 == 0)
            session = SatSession()
            solver = MaxSatSolver(session=session)
            builder = clone(reference)
            first = solver.solve(builder)
            second = solver.solve(builder)  # same instance, warm session
            scratch = MaxSatSolver().solve(clone(reference))
            assert first.status is scratch.status, f"seed {seed}"
            assert second.status is scratch.status, f"seed {seed}"
            if scratch.has_model:
                assert first.cost == second.cost == scratch.cost, f"seed {seed}"

    def test_assumption_pinning_matches_hard_units(self):
        """Pinning context via assumptions == baking it in as hard units."""
        for seed in range(10):
            rng = random.Random(5000 + seed)
            reference = random_wcnf(rng, weighted=False)
            pin = [v if rng.random() < 0.5 else -v
                   for v in rng.sample(range(1, reference.num_vars + 1),
                                       min(2, reference.num_vars))]
            hard_pinned = clone(reference)
            for literal in pin:
                hard_pinned.add_hard([literal])
            scratch = MaxSatSolver().solve(hard_pinned)
            incremental = MaxSatSolver(session=SatSession()).solve(
                clone(reference), assumptions=pin)
            assert scratch.status is incremental.status, f"seed {seed} pin {pin}"
            if scratch.has_model:
                assert scratch.cost == incremental.cost, f"seed {seed} pin {pin}"

    def test_exclusion_resolve_on_warm_session(self):
        """The slicing backtrack pattern: add an exclusion clause, re-solve."""
        for seed in range(6):
            rng = random.Random(6000 + seed)
            reference = random_wcnf(rng, weighted=False)
            session = SatSession()
            solver = MaxSatSolver(session=session)
            builder = clone(reference)
            first = solver.solve(builder)
            if not first.has_model:
                continue
            # Forbid the exact model found (over the original variables).
            exclusion = [-v if first.model.get(v, False) else v
                         for v in range(1, reference.num_vars + 1)]
            builder.add_hard(exclusion)
            warm = solver.solve(builder)
            cold_builder = clone(reference)
            cold_builder.add_hard(list(exclusion))
            cold = MaxSatSolver().solve(cold_builder)
            assert warm.status is cold.status, f"seed {seed}"
            if cold.has_model:
                assert warm.cost == cold.cost, f"seed {seed}"


class TestSessionBinding:
    def test_session_backed_facade_rejects_a_second_builder(self):
        import pytest

        session = SatSession()
        solver = MaxSatSolver(session=session)
        first = WcnfBuilder()
        a = first.new_var()
        first.add_hard([a])
        solver.solve(first)
        second = WcnfBuilder()
        b = second.new_var()
        second.add_hard([-b])
        with pytest.raises(ValueError):
            solver.solve(second)
        # The original binding keeps working.
        assert solver.solve(first).has_model


class TestBudgetInsideSelectorConstruction:
    def test_zero_budget_returns_cleanly_before_selectors(self):
        builder = WcnfBuilder()
        variables = builder.new_vars(40)
        builder.add_hard([variables[0], variables[1]])
        for v in variables:
            builder.add_soft([v, -variables[0]])
        outcome = LinearSearchSolver(builder).solve(time_budget=0.0)
        # The selector loop must notice the dead budget and give up cleanly
        # instead of relaxing every soft clause first.
        assert not outcome.found_model
        assert not outcome.optimal
        assert outcome.sat_calls == 0
        assert outcome.cost == -1

    def test_selector_loop_leaves_solver_reusable(self):
        builder = WcnfBuilder()
        variables = builder.new_vars(10)
        builder.add_hard([variables[0]])
        for v in variables[1:]:
            builder.add_soft([v], weight=1)
        session = SatSession()
        solver = LinearSearchSolver(builder, session=session)
        dead = solver.solve(time_budget=0.0)
        assert not dead.found_model
        # A later call with a real budget still works on the same session.
        alive = solver.solve()
        assert alive.found_model and alive.optimal
        assert alive.cost == 0
