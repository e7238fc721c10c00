"""Tests for cardinality and pseudo-Boolean encodings."""

import itertools

import pytest

from repro.maxsat.cardinality import (
    GeneralizedTotalizer,
    Totalizer,
    at_least_one,
    at_most_one_commander,
    at_most_one_pairwise,
    exactly_one,
)
from repro.maxsat.wcnf import WcnfBuilder
from repro.sat import SatSolver


def count_models_with(builder: WcnfBuilder, num_inputs: int,
                      predicate) -> tuple[int, int]:
    """Count (models matching predicate, total models) over the input variables."""
    matching = 0
    total = 0
    for bits in itertools.product([False, True], repeat=num_inputs):
        solver = SatSolver()
        builder.stream_hard(solver)
        assumptions = [var if value else -var
                       for var, value in zip(range(1, num_inputs + 1), bits)]
        result = solver.solve(assumptions=assumptions)
        if result.is_sat:
            matching += 1
        if predicate(bits):
            total += 1
    return matching, total


class TestAtMostOne:
    @pytest.mark.parametrize("encoder", [at_most_one_pairwise, at_most_one_commander])
    def test_amo_allows_at_most_one_true(self, encoder):
        builder = WcnfBuilder()
        inputs = builder.new_vars(5)
        encoder(builder, inputs)
        satisfiable, expected = count_models_with(
            builder, 5, lambda bits: sum(bits) <= 1)
        assert satisfiable == expected == 6  # empty assignment + 5 singletons

    def test_exactly_one_requires_one(self):
        builder = WcnfBuilder()
        inputs = builder.new_vars(4)
        exactly_one(builder, inputs)
        satisfiable, expected = count_models_with(
            builder, 4, lambda bits: sum(bits) == 1)
        assert satisfiable == expected == 4

    def test_at_least_one(self):
        builder = WcnfBuilder()
        inputs = builder.new_vars(3)
        at_least_one(builder, inputs)
        satisfiable, _ = count_models_with(builder, 3, lambda bits: True)
        assert satisfiable == 7  # everything except all-false

    def test_commander_uses_fewer_clauses_for_large_sets(self):
        pairwise_builder = WcnfBuilder()
        pairwise_inputs = pairwise_builder.new_vars(30)
        at_most_one_pairwise(pairwise_builder, pairwise_inputs)

        commander_builder = WcnfBuilder()
        commander_inputs = commander_builder.new_vars(30)
        at_most_one_commander(commander_builder, commander_inputs)
        assert commander_builder.num_hard < pairwise_builder.num_hard


class TestTotalizer:
    @pytest.mark.parametrize("num_inputs,bound", [(4, 1), (4, 2), (5, 0), (5, 3), (6, 2)])
    def test_at_most_bound_enforced_exactly(self, num_inputs, bound):
        builder = WcnfBuilder()
        inputs = builder.new_vars(num_inputs)
        totalizer = Totalizer(builder, inputs)
        totalizer.enforce_at_most(bound)
        satisfiable, expected = count_models_with(
            builder, num_inputs, lambda bits: sum(bits) <= bound)
        assert satisfiable == expected

    def test_bound_beyond_size_is_noop(self):
        builder = WcnfBuilder()
        inputs = builder.new_vars(3)
        totalizer = Totalizer(builder, inputs)
        clauses_before = builder.num_hard
        totalizer.enforce_at_most(5)
        assert builder.num_hard == clauses_before

    def test_negative_bound_rejected(self):
        builder = WcnfBuilder()
        totalizer = Totalizer(builder, builder.new_vars(2))
        with pytest.raises(ValueError):
            totalizer.enforce_at_most(-1)

    def test_empty_inputs(self):
        builder = WcnfBuilder()
        totalizer = Totalizer(builder, [])
        assert totalizer.outputs == []

    def test_assumption_based_bound(self):
        builder = WcnfBuilder()
        inputs = builder.new_vars(4)
        totalizer = Totalizer(builder, inputs)
        solver = SatSolver()
        builder.stream_hard(solver)
        # Force three inputs true, then ask for "at most 2" via assumptions.
        result = solver.solve(assumptions=[inputs[0], inputs[1], inputs[2]]
                              + totalizer.assumption_for_at_most(2))
        assert result.is_unsat
        result = solver.solve(assumptions=[inputs[0], inputs[1]]
                              + totalizer.assumption_for_at_most(2))
        assert result.is_sat


class TestGeneralizedTotalizer:
    def brute_min_weight_violation(self, weights, bound):
        """Count assignments whose weighted sum is < bound."""
        count = 0
        for bits in itertools.product([False, True], repeat=len(weights)):
            if sum(w for w, b in zip(weights, bits) if b) < bound:
                count += 1
        return count

    @pytest.mark.parametrize("weights,bound", [
        ([1, 1, 1], 2), ([2, 3, 5], 5), ([1, 2, 4, 8], 7), ([3, 3, 3], 4),
    ])
    def test_weight_bound_enforced_exactly(self, weights, bound):
        builder = WcnfBuilder()
        inputs = builder.new_vars(len(weights))
        gte = GeneralizedTotalizer(builder, list(zip(inputs, weights)))
        gte.enforce_weight_less_than(bound)
        satisfiable, expected = count_models_with(
            builder, len(weights),
            lambda bits: sum(w for w, b in zip(weights, bits) if b) < bound)
        assert satisfiable == expected

    def test_rejects_nonpositive_weight(self):
        builder = WcnfBuilder()
        inputs = builder.new_vars(2)
        with pytest.raises(ValueError):
            GeneralizedTotalizer(builder, [(inputs[0], 0), (inputs[1], 1)])

    def test_rejects_nonpositive_bound(self):
        builder = WcnfBuilder()
        inputs = builder.new_vars(2)
        gte = GeneralizedTotalizer(builder, [(inputs[0], 1), (inputs[1], 2)])
        with pytest.raises(ValueError):
            gte.enforce_weight_less_than(0)

    def test_outputs_cover_achievable_sums(self):
        builder = WcnfBuilder()
        inputs = builder.new_vars(3)
        gte = GeneralizedTotalizer(builder, list(zip(inputs, [1, 2, 4])))
        assert set(gte.outputs) == {1, 2, 3, 4, 5, 6, 7}

    def test_empty_inputs(self):
        builder = WcnfBuilder()
        gte = GeneralizedTotalizer(builder, [])
        assert gte.outputs == {}
