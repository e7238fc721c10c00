"""Tests for the anytime linear-search MaxSAT solver."""

from repro.maxsat.solver import MaxSatSolver, MaxSatStatus
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
        result = MaxSatSolver().solve(simple_instance())
        assert result.has_model and result.is_optimal
        assert result.cost == 1

    def test_all_soft_satisfiable_gives_zero_cost(self):
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([a])
        builder.add_soft([a])
        builder.add_soft([b])
        result = MaxSatSolver().solve(builder)
        assert result.is_optimal and result.cost == 0

    def test_hard_unsat_reported(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_hard([a])
        builder.add_hard([-a])
        builder.add_soft([a])
        result = MaxSatSolver().solve(builder)
        assert not result.has_model
        # Definitive: the hard clauses are unsatisfiable.
        assert result.status is MaxSatStatus.UNSATISFIABLE

    def test_weighted_prefers_heavier_clause(self):
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([a, b])
        builder.add_hard([-a, -b])
        builder.add_soft([a], weight=10)
        builder.add_soft([b], weight=1)
        result = MaxSatSolver().solve(builder)
        assert result.is_optimal
        assert result.cost == 1
        assert result.model[a] is True and result.model[b] is False

    def test_non_unit_soft_clauses(self):
        builder = WcnfBuilder()
        a, b, c = builder.new_vars(3)
        builder.add_hard([-a, -b])
        builder.add_soft([a, c])
        builder.add_soft([b, c])
        builder.add_soft([-c])
        result = MaxSatSolver().solve(builder)
        assert result.is_optimal and result.cost == 1

    def test_no_soft_clauses(self):
        builder = WcnfBuilder()
        a = builder.new_var()
        builder.add_hard([a])
        result = MaxSatSolver().solve(builder)
        assert result.is_optimal and result.cost == 0

    def test_anytime_respects_zero_budget(self):
        builder = simple_instance()
        result = MaxSatSolver().solve(builder, time_budget=0.0)
        # With no time at all, either nothing or a (possibly non-optimal) model.
        assert result.cost in (-1, 0, 1, 2)

    def test_sat_call_count_recorded(self):
        result = MaxSatSolver().solve(simple_instance())
        assert result.sat_calls >= 2  # at least one improvement + one proof
