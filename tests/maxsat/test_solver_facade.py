"""Tests for the MaxSatSolver facade."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxsat import MaxSatSolver, MaxSatStatus, WcnfBuilder
from repro.maxsat.wcnf import clause_satisfied


def build(hard, soft):
    builder = WcnfBuilder()
    max_var = max((abs(l) for clause in hard + [c for _, c in soft] for l in clause),
                  default=0)
    builder.new_vars(max_var)
    for clause in hard:
        builder.add_hard(clause)
    for weight, clause in soft:
        builder.add_soft(clause, weight)
    return builder


class TestFacade:
    def test_optimum_on_small_instance(self):
        builder = build([[1, 2]], [(1, [-1]), (1, [-2])])
        result = MaxSatSolver().solve(builder)
        assert result.status is MaxSatStatus.OPTIMAL
        assert result.cost == 1

    def test_unsatisfiable_hard_clauses(self):
        builder = build([[1], [-1]], [(1, [1])])
        result = MaxSatSolver().solve(builder)
        assert result.status is MaxSatStatus.UNSATISFIABLE
        assert not result.has_model

    def test_model_reported_for_optimal(self):
        builder = build([[1]], [(1, [-2])])
        result = MaxSatSolver().solve(builder)
        assert result.has_model
        assert result.model[1] is True

    def test_zero_cost_optimum(self):
        builder = build([[1]], [(3, [1])])
        result = MaxSatSolver().solve(builder)
        assert result.is_optimal and result.cost == 0

    def test_statistics_populated(self):
        builder = build([[1, 2]], [(1, [-1]), (1, [-2])])
        result = MaxSatSolver().solve(builder)
        assert result.sat_calls >= 1
        assert result.solve_time >= 0.0


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


class TestInstances:
    """Small instances with known optima, solved through the facade."""

    def test_all_soft_satisfiable(self):
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([a, b])
        builder.add_soft([a])
        builder.add_soft([b])
        result = MaxSatSolver().solve(builder)
        assert result.is_optimal and result.cost == 0

    def test_one_soft_must_fail(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_soft([a])
        builder.add_soft([-a])
        result = MaxSatSolver().solve(builder)
        assert result.is_optimal and result.cost == 1

    def test_hard_unsat_reported(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_hard([a])
        builder.add_hard([-a])
        builder.add_soft([a])
        result = MaxSatSolver().solve(builder)
        assert result.status is MaxSatStatus.UNSATISFIABLE
        assert result.cost == -1

    def test_weighted_preference(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_soft([a], weight=5)
        builder.add_soft([-a], weight=1)
        result = MaxSatSolver().solve(builder)
        assert result.cost == 1
        assert result.model[a] is True

    def test_weighted_hard_disjunction(self):
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([a, b])
        builder.add_soft([-a], weight=2)
        builder.add_soft([-b], weight=3)
        result = MaxSatSolver().solve(builder)
        assert result.status is MaxSatStatus.OPTIMAL
        assert result.cost == 2

    def test_paper_example_4(self):
        # Hard = {-a or b}, Soft = {b, a and -b (as two clauses a, -b)}.
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([-a, b])
        builder.add_soft([b])
        builder.add_soft([a])
        builder.add_soft([-b])
        result = MaxSatSolver().solve(builder)
        assert result.is_optimal
        assert result.cost == 1

    def test_zero_budget_returns_unknown(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_soft([a])
        builder.add_soft([-a])
        result = MaxSatSolver().solve(builder, time_budget=0.0)
        assert result.status is MaxSatStatus.UNKNOWN
        assert not result.has_model

    def test_zero_cost_with_a_non_unit_soft_clause(self):
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([a, b])
        builder.add_soft([a, b])
        result = MaxSatSolver().solve(builder)
        assert result.is_optimal and result.cost == 0

    def test_multiple_cores_needed(self):
        # Three mutually exclusive soft requirements on one variable pair.
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([a, b])
        builder.add_soft([-a])
        builder.add_soft([-b])
        builder.add_soft([-a, -b])
        result = MaxSatSolver().solve(builder)
        assert result.is_optimal
        assert result.cost == 1

    def test_pairwise_exclusive_softs(self):
        builder = WcnfBuilder()
        a, b, c = builder.new_vars(3)
        builder.add_hard([-a, -b])
        builder.add_hard([-b, -c])
        builder.add_hard([-a, -c])
        for variable in (a, b, c):
            builder.add_soft([variable])
        result = MaxSatSolver().solve(builder)
        assert result.is_optimal and result.cost == 2


class TestAgainstBruteForce:
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
        result = MaxSatSolver().solve(builder, time_budget=20.0)
        if expected is None:
            assert result.status is MaxSatStatus.UNSATISFIABLE
        else:
            assert result.is_optimal
            assert result.cost == expected
