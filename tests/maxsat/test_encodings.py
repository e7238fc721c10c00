"""Tests for the additional cardinality encodings (ladder, bitwise, sequential)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxsat.encodings import (
    SequentialCounter,
    at_most_k_sequential,
    at_most_one_bitwise,
    at_most_one_ladder,
    exactly_k,
)
from repro.maxsat.wcnf import WcnfBuilder
from repro.sat.solver import SatSolver, SolverStatus


def _solve_with(builder, extra_units):
    solver = SatSolver()
    builder.stream_hard(solver)
    for literal in extra_units:
        solver.add_clause([literal])
    return solver.solve()


def _count_satisfiable_patterns(builder, literals, true_count):
    """How many ways of making exactly ``true_count`` literals true are SAT."""
    satisfiable = 0
    for chosen in itertools.combinations(literals, true_count):
        units = [lit if lit in chosen else -lit for lit in literals]
        if _solve_with(builder, units).status is SolverStatus.SAT:
            satisfiable += 1
    return satisfiable


def _fresh(num_literals):
    builder = WcnfBuilder()
    literals = builder.new_vars(num_literals)
    return builder, literals


class TestLadderAmo:
    @pytest.mark.parametrize("size", [2, 3, 4, 6, 9])
    def test_allows_every_single_choice(self, size):
        builder, literals = _fresh(size)
        at_most_one_ladder(builder, literals)
        assert _count_satisfiable_patterns(builder, literals, 1) == size

    @pytest.mark.parametrize("size", [3, 4, 6])
    def test_forbids_every_pair(self, size):
        builder, literals = _fresh(size)
        at_most_one_ladder(builder, literals)
        assert _count_satisfiable_patterns(builder, literals, 2) == 0

    def test_allows_all_false(self):
        builder, literals = _fresh(5)
        at_most_one_ladder(builder, literals)
        assert _solve_with(builder, [-l for l in literals]).status is SolverStatus.SAT

    def test_clause_count_is_linear(self):
        builder, literals = _fresh(30)
        at_most_one_ladder(builder, literals)
        assert builder.num_hard < 4 * 30  # pairwise would need 435 clauses


class TestBitwiseAmo:
    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    def test_allows_every_single_choice(self, size):
        builder, literals = _fresh(size)
        at_most_one_bitwise(builder, literals)
        assert _count_satisfiable_patterns(builder, literals, 1) == size

    @pytest.mark.parametrize("size", [3, 5])
    def test_forbids_every_pair(self, size):
        builder, literals = _fresh(size)
        at_most_one_bitwise(builder, literals)
        assert _count_satisfiable_patterns(builder, literals, 2) == 0

    def test_single_literal_needs_no_bits(self):
        builder, literals = _fresh(1)
        assert at_most_one_bitwise(builder, literals) == []

    def test_bit_count_is_logarithmic(self):
        builder, literals = _fresh(16)
        bits = at_most_one_bitwise(builder, literals)
        assert len(bits) == 4


class TestSequentialCounter:
    @pytest.mark.parametrize("size,bound", [(4, 1), (4, 2), (5, 3), (6, 2)])
    def test_at_most_k_boundary(self, size, bound):
        builder, literals = _fresh(size)
        at_most_k_sequential(builder, literals, bound)
        assert _count_satisfiable_patterns(builder, literals, bound) > 0
        assert _count_satisfiable_patterns(builder, literals, bound + 1) == 0

    def test_bound_at_size_adds_nothing(self):
        builder, literals = _fresh(4)
        at_most_k_sequential(builder, literals, 4)
        assert builder.num_hard == 0

    def test_outputs_reflect_counts(self):
        builder, literals = _fresh(4)
        counter = SequentialCounter(builder, literals)
        # Force exactly two inputs true; output[1] must hold, output[2] must not.
        units = [literals[0], literals[1], -literals[2], -literals[3]]
        result = _solve_with(builder, units)
        assert result.status is SolverStatus.SAT
        assert result.model[abs(counter.outputs[1])] is True

    def test_assumption_form_is_reusable(self):
        builder, literals = _fresh(4)
        counter = SequentialCounter(builder, literals)
        assumptions = counter.assumption_for_at_most(1)
        solver = SatSolver()
        builder.stream_hard(solver)
        for literal in (literals[0], literals[1]):
            solver.add_clause([literal])
        assert solver.solve(assumptions=assumptions).status is SolverStatus.UNSAT
        # Without the assumption the same formula is satisfiable.
        assert solver.solve().status is SolverStatus.SAT

    def test_rejects_negative_bound(self):
        builder, literals = _fresh(3)
        counter = SequentialCounter(builder, literals)
        with pytest.raises(ValueError):
            counter.enforce_at_most(-1)

    def test_empty_inputs(self):
        builder = WcnfBuilder()
        counter = SequentialCounter(builder, [])
        assert counter.outputs == []


class TestExactlyK:
    @pytest.mark.parametrize("size,bound", [(3, 0), (3, 1), (4, 2), (4, 4), (5, 3)])
    def test_exactly_k_counts(self, size, bound):
        builder, literals = _fresh(size)
        exactly_k(builder, literals, bound)
        below = _count_satisfiable_patterns(builder, literals, bound - 1) if bound > 0 else 0
        exact = _count_satisfiable_patterns(builder, literals, bound)
        above = (_count_satisfiable_patterns(builder, literals, bound + 1)
                 if bound < size else 0)
        assert below == 0
        assert exact == len(list(itertools.combinations(range(size), bound)))
        assert above == 0

    def test_rejects_impossible_bound(self):
        builder, literals = _fresh(3)
        with pytest.raises(ValueError):
            exactly_k(builder, literals, 5)

    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(min_value=1, max_value=5),
           data=st.data())
    def test_exactly_k_property(self, size, data):
        bound = data.draw(st.integers(min_value=0, max_value=size))
        builder, literals = _fresh(size)
        exactly_k(builder, literals, bound)
        # Any full assignment with exactly `bound` trues must be satisfiable.
        chosen = literals[:bound]
        units = [l if l in chosen else -l for l in literals]
        assert _solve_with(builder, units).status is SolverStatus.SAT
