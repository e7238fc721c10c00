"""Tests for the anytime linear-search MaxSAT solver."""

from repro.maxsat.linear_search import LinearSearchSolver
from repro.maxsat.wcnf import WcnfBuilder


def simple_instance() -> WcnfBuilder:
    """Hard: (a | b); Soft: -a, -b.  Optimum cost 1."""
    builder = WcnfBuilder()
    a, b = builder.new_vars(2)
    builder.add_hard([a, b])
    builder.add_soft([-a])
    builder.add_soft([-b])
    return builder


class TestLinearSearch:
    def test_finds_optimum_of_simple_instance(self):
        outcome = LinearSearchSolver(simple_instance()).solve()
        assert outcome.found_model and outcome.optimal
        assert outcome.cost == 1

    def test_all_soft_satisfiable_gives_zero_cost(self):
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([a])
        builder.add_soft([a])
        builder.add_soft([b])
        outcome = LinearSearchSolver(builder).solve()
        assert outcome.optimal and outcome.cost == 0

    def test_hard_unsat_reported(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_hard([a])
        builder.add_hard([-a])
        builder.add_soft([a])
        outcome = LinearSearchSolver(builder).solve()
        assert not outcome.found_model
        assert outcome.optimal  # definitive: the hard clauses are unsatisfiable

    def test_weighted_prefers_heavier_clause(self):
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([a, b])
        builder.add_hard([-a, -b])
        builder.add_soft([a], weight=10)
        builder.add_soft([b], weight=1)
        outcome = LinearSearchSolver(builder).solve()
        assert outcome.optimal
        assert outcome.cost == 1
        assert outcome.model[a] is True and outcome.model[b] is False

    def test_non_unit_soft_clauses(self):
        builder = WcnfBuilder()
        a, b, c = builder.new_vars(3)
        builder.add_hard([-a, -b])
        builder.add_soft([a, c])
        builder.add_soft([b, c])
        builder.add_soft([-c])
        outcome = LinearSearchSolver(builder).solve()
        assert outcome.optimal and outcome.cost == 1

    def test_no_soft_clauses(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_hard([a])
        outcome = LinearSearchSolver(builder).solve()
        assert outcome.optimal and outcome.cost == 0

    def test_anytime_respects_zero_budget(self):
        builder = simple_instance()
        outcome = LinearSearchSolver(builder).solve(time_budget=0.0)
        # With no time at all, either nothing or a (possibly non-optimal) model.
        assert outcome.cost in (-1, 0, 1, 2)

    def test_sat_call_count_recorded(self):
        outcome = LinearSearchSolver(simple_instance()).solve()
        assert outcome.sat_calls >= 2  # at least one improvement + one proof
