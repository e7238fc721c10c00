"""Tests for the OLL (RC2-style) core-guided MaxSAT strategy."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxsat.rc2 import OllSolver
from repro.maxsat.solver import MaxSatSolver, MaxSatStatus
from repro.maxsat.wcnf import WcnfBuilder, clause_satisfied


def _brute_force_optimum(builder):
    """Minimum falsified soft weight over all models of the hard clauses."""
    variables = list(range(1, builder.num_vars + 1))
    hard = builder.to_dimacs().hard
    best = None
    for bits in itertools.product([False, True], repeat=len(variables)):
        model = dict(zip(variables, bits))
        if not all(clause_satisfied(clause, model) for clause in hard):
            continue
        cost = builder.cost_of_model(model)
        best = cost if best is None else min(best, cost)
    return best


class TestOllBasics:
    def test_all_soft_satisfiable(self):
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([a, b])
        builder.add_soft([a])
        builder.add_soft([b])
        outcome = OllSolver(builder).solve()
        assert outcome.found_model and outcome.optimal
        assert outcome.cost == 0

    def test_one_soft_must_fail(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_soft([a])
        builder.add_soft([-a])
        outcome = OllSolver(builder).solve()
        assert outcome.optimal and outcome.cost == 1

    def test_hard_unsat_reported(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_hard([a])
        builder.add_hard([-a])
        builder.add_soft([a])
        outcome = OllSolver(builder).solve()
        assert not outcome.found_model
        assert outcome.optimal and outcome.cost == -1

    def test_weighted_preference(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_soft([a], weight=5)
        builder.add_soft([-a], weight=1)
        outcome = OllSolver(builder).solve()
        assert outcome.cost == 1
        assert outcome.model[a] is True

    def test_paper_example_4(self):
        # Hard = {-a or b}, Soft = {b, a and -b (as two clauses a, -b)}.
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([-a, b])
        builder.add_soft([b])
        builder.add_soft([a])
        builder.add_soft([-b])
        outcome = OllSolver(builder).solve()
        assert outcome.optimal
        assert outcome.cost == 1

    def test_core_counter_increases(self):
        builder = WcnfBuilder()
        a, b, c = builder.new_vars(3)
        builder.add_hard([-a, -b])
        builder.add_hard([-b, -c])
        builder.add_hard([-a, -c])
        for variable in (a, b, c):
            builder.add_soft([variable])
        outcome = OllSolver(builder).solve()
        assert outcome.cost == 2
        assert outcome.cores >= 1

    def test_zero_budget_returns_unknown(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_soft([a])
        builder.add_soft([-a])
        outcome = OllSolver(builder).solve(time_budget=0.0)
        assert not outcome.found_model
        assert not outcome.optimal


class TestFacadeIntegration:
    def test_rc2_strategy_accepted(self):
        solver = MaxSatSolver(strategy="rc2")
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([a, b])
        builder.add_soft([-a], weight=2)
        builder.add_soft([-b], weight=3)
        result = solver.solve(builder)
        assert result.status is MaxSatStatus.OPTIMAL
        assert result.cost == 2

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            MaxSatSolver(strategy="branch-and-bound")

    def test_rc2_unsat_hard(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_hard([a])
        builder.add_hard([-a])
        result = MaxSatSolver(strategy="rc2").solve(builder)
        assert result.status is MaxSatStatus.UNSATISFIABLE


class TestOllAgainstBruteForce:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_optimum_matches_brute_force(self, data):
        num_vars = data.draw(st.integers(min_value=2, max_value=4))
        builder = WcnfBuilder()
        variables = builder.new_vars(num_vars)
        literal = st.sampled_from([v for v in variables] + [-v for v in variables])
        num_hard = data.draw(st.integers(min_value=0, max_value=3))
        for _ in range(num_hard):
            clause = data.draw(st.lists(literal, min_size=1, max_size=3))
            builder.add_hard(clause)
        num_soft = data.draw(st.integers(min_value=1, max_value=4))
        for _ in range(num_soft):
            clause = data.draw(st.lists(literal, min_size=1, max_size=2))
            weight = data.draw(st.integers(min_value=1, max_value=4))
            builder.add_soft(clause, weight=weight)

        expected = _brute_force_optimum(builder)
        outcome = OllSolver(builder).solve(time_budget=20.0)
        if expected is None:
            assert not outcome.found_model
        else:
            assert outcome.found_model
            assert outcome.cost == expected

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_agrees_with_linear_search(self, data):
        num_vars = data.draw(st.integers(min_value=2, max_value=4))

        def build():
            builder = WcnfBuilder()
            variables = builder.new_vars(num_vars)
            builder.add_hard([variables[0], variables[1]])
            for index, variable in enumerate(variables):
                builder.add_soft([-variable], weight=index + 1)
            return builder

        linear = MaxSatSolver(strategy="linear").solve(build())
        rc2 = MaxSatSolver(strategy="rc2").solve(build())
        assert linear.status is MaxSatStatus.OPTIMAL
        assert rc2.status is MaxSatStatus.OPTIMAL
        assert linear.cost == rc2.cost
