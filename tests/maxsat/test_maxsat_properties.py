"""Property-based tests: the MaxSAT search agrees with brute force."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.maxsat import MaxSatSolver, MaxSatStatus, WcnfBuilder


def brute_force_optimum(num_vars, hard, soft):
    """Minimum total weight of violated soft clauses over models of the hard part."""
    best = None
    for bits in itertools.product([False, True], repeat=num_vars):
        def value(literal):
            bit = bits[abs(literal) - 1]
            return bit if literal > 0 else not bit

        if not all(any(value(l) for l in clause) for clause in hard):
            continue
        cost = sum(weight for weight, clause in soft
                   if not any(value(l) for l in clause))
        if best is None or cost < best:
            best = cost
    return best


@st.composite
def maxsat_instance(draw, weighted: bool):
    num_vars = draw(st.integers(min_value=2, max_value=6))
    literal = st.builds(lambda sign, var: sign * var,
                        st.sampled_from([1, -1]), st.integers(1, num_vars))
    clause = st.lists(literal, min_size=1, max_size=3)
    hard = draw(st.lists(clause, min_size=0, max_size=8))
    weight = st.integers(1, 4) if weighted else st.just(1)
    soft = draw(st.lists(st.tuples(weight, clause), min_size=1, max_size=6))
    return num_vars, hard, soft


def make_builder(num_vars, hard, soft) -> WcnfBuilder:
    builder = WcnfBuilder()
    builder.new_vars(num_vars)
    for clause in hard:
        builder.add_hard(list(clause))
    for weight, clause in soft:
        builder.add_soft(list(clause), weight)
    return builder


class TestAgainstBruteForce:
    @given(maxsat_instance(weighted=False))
    @settings(max_examples=40, deadline=None)
    def test_linear_search_unweighted(self, instance):
        num_vars, hard, soft = instance
        expected = brute_force_optimum(num_vars, hard, soft)
        result = MaxSatSolver().solve(make_builder(num_vars, hard, soft))
        if expected is None:
            assert result.status is MaxSatStatus.UNSATISFIABLE
        else:
            assert result.is_optimal and result.cost == expected

    @given(maxsat_instance(weighted=True))
    @settings(max_examples=40, deadline=None)
    def test_linear_search_weighted(self, instance):
        num_vars, hard, soft = instance
        expected = brute_force_optimum(num_vars, hard, soft)
        result = MaxSatSolver().solve(make_builder(num_vars, hard, soft))
        if expected is None:
            assert result.status is MaxSatStatus.UNSATISFIABLE
        else:
            assert result.is_optimal and result.cost == expected

    @given(maxsat_instance(weighted=True))
    @settings(max_examples=25, deadline=None)
    def test_optimal_model_cost_matches_reported_cost(self, instance):
        num_vars, hard, soft = instance
        builder = make_builder(num_vars, hard, soft)
        result = MaxSatSolver().solve(builder)
        if result.has_model:
            assert builder.cost_of_model(result.model) == result.cost
