"""Tests for the weighted CNF builder."""

import pytest

from repro.maxsat.wcnf import WcnfBuilder, clause_satisfied


class TestWcnfBuilder:
    def test_new_var_counts_up(self):
        builder = WcnfBuilder()
        assert builder.new_var() == 1
        assert builder.new_var() == 2
        assert builder.num_vars == 2

    def test_new_vars_bulk(self):
        builder = WcnfBuilder()
        assert builder.new_vars(3) == [1, 2, 3]

    def test_add_hard_records_clause(self):
        builder = WcnfBuilder()
        builder.add_hard([1, -2])
        assert builder.to_dimacs().hard == [[1, -2]]
        assert builder.num_hard == 1

    def test_add_soft_default_weight(self):
        builder = WcnfBuilder()
        builder.add_soft([3])
        assert builder.soft[0].weight == 1
        assert builder.num_soft == 1

    def test_add_soft_with_weight(self):
        builder = WcnfBuilder()
        builder.add_soft([1], weight=5)
        assert builder.total_soft_weight == 5

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            WcnfBuilder().add_soft([1], weight=0)

    def test_rejects_empty_clause(self):
        with pytest.raises(ValueError):
            WcnfBuilder().add_hard([])

    def test_rejects_zero_literal(self):
        with pytest.raises(ValueError):
            WcnfBuilder().add_hard([1, 0])

    def test_num_vars_tracks_largest_literal(self):
        builder = WcnfBuilder()
        builder.add_hard([7, -9])
        assert builder.num_vars == 9

    def test_is_weighted_detection(self):
        builder = WcnfBuilder()
        builder.add_soft([1])
        assert not builder.is_weighted()
        builder.add_soft([2], weight=4)
        assert builder.is_weighted()

    def test_to_dimacs(self):
        builder = WcnfBuilder()
        builder.add_hard([1, 2])
        builder.add_soft([-1], weight=3)
        formula = builder.to_dimacs()
        assert formula.hard == [[1, 2]]
        assert formula.soft == [(3, [-1])]


class TestCostOfModel:
    def test_all_satisfied_costs_zero(self):
        builder = WcnfBuilder()
        builder.add_soft([1])
        builder.add_soft([2], weight=5)
        assert builder.cost_of_model({1: True, 2: True}) == 0

    def test_violated_weights_summed(self):
        builder = WcnfBuilder()
        builder.add_soft([1])
        builder.add_soft([2], weight=5)
        assert builder.cost_of_model({1: False, 2: False}) == 6

    def test_missing_variables_treated_as_false(self):
        builder = WcnfBuilder()
        builder.add_soft([4])
        assert builder.cost_of_model({}) == 1

    def test_clause_satisfied_positive(self):
        assert clause_satisfied([1, 2], {1: False, 2: True})

    def test_clause_satisfied_negative(self):
        assert clause_satisfied([-3], {3: False})

    def test_clause_unsatisfied(self):
        assert not clause_satisfied([1, -2], {1: False, 2: True})
