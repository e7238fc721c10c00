"""Tests for the weight-clustering approximation in the linear-search bound.

Large soft-clause weights (the noise-aware objective produces values in the
hundreds) make the generalized-totalizer bound pseudo-polynomially expensive.
The linear search clusters such weights for its bound structure, exactly like
Open-WBO-Inc; these tests pin down when clustering kicks in and that it never
breaks correctness, only proof-of-optimality.
"""

import itertools

from repro.maxsat.solver import MAX_BOUND_WEIGHT, MaxSatSolver, MaxSatStatus
from repro.maxsat.wcnf import WcnfBuilder, clause_satisfied


def _conflicting_pair(weight_a, weight_b):
    """Two unit soft clauses on one variable: exactly one must be violated."""
    builder = WcnfBuilder()
    variable = builder.new_var()
    builder.add_soft([variable], weight=weight_a)
    builder.add_soft([-variable], weight=weight_b)
    return builder, variable


class TestClusterWeights:
    def test_small_weights_are_not_clustered(self):
        assert MAX_BOUND_WEIGHT == 32
        assert MaxSatSolver._cluster_weights([1, 5, 32]) is None

    def test_large_weights_are_clustered_into_range(self):
        clustered = MaxSatSolver._cluster_weights([40, 400, 4000])
        assert clustered is not None
        assert max(clustered) == MAX_BOUND_WEIGHT
        assert min(clustered) >= 1
        # Order must be preserved (monotone rescaling).
        assert clustered == sorted(clustered)

    def test_empty_weights(self):
        assert MaxSatSolver._cluster_weights([]) is None


class TestSmallWeightsStayExact:
    def test_exact_optimum_with_small_weights(self):
        builder, variable = _conflicting_pair(5, 1)
        result = MaxSatSolver().solve(builder)
        assert result.status is MaxSatStatus.OPTIMAL
        assert result.cost == 1
        assert result.model[variable] is True


class TestLargeWeightsStayCorrect:
    def test_clustered_instance_prefers_heavy_clause(self):
        builder, variable = _conflicting_pair(5000, 700)
        result = MaxSatSolver().solve(builder)
        assert result.has_model
        assert result.cost == 700
        assert result.model[variable] is True

    def test_clustered_instance_with_hard_constraints(self):
        builder = WcnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_hard([a, b])
        builder.add_soft([-a], weight=900)
        builder.add_soft([-b], weight=450)
        builder.add_soft([a, b], weight=1200)  # already implied by the hard clause
        result = MaxSatSolver().solve(builder)
        assert result.has_model
        # Best solution sets b (cost 450); clustering must still find it.
        assert result.cost == 450

    def test_cost_matches_brute_force_on_clustered_instance(self):
        builder = WcnfBuilder()
        a, b, c = builder.new_vars(3)
        builder.add_hard([a, b, c])
        builder.add_soft([-a], weight=1000)
        builder.add_soft([-b], weight=999)
        builder.add_soft([-c], weight=100)
        builder.add_soft([a], weight=300)
        exact = min(
            builder.cost_of_model(model)
            for bits in itertools.product([False, True], repeat=3)
            for model in [dict(zip((a, b, c), bits))]
            if clause_satisfied([a, b, c], model))

        linear = MaxSatSolver().solve(builder)
        assert exact == 400
        assert linear.has_model
        # Clustering may cost a little precision but not much on 4 clauses.
        assert linear.cost <= exact * 1.2 + 1


class TestNoiseAwareBudgetRespected:
    def test_noise_aware_routing_finishes_quickly(self):
        import time

        from repro.analysis.suite import tiny_suite
        from repro.core import NoiseAwareSatMapRouter
        from repro.hardware.noise import NoiseModel
        from repro.hardware.topologies import reduced_tokyo_architecture

        architecture = reduced_tokyo_architecture(6)
        noise = NoiseModel.synthetic(architecture, seed=2019, low=0.005, high=0.12)
        bench = tiny_suite()[1]
        start = time.monotonic()
        result = NoiseAwareSatMapRouter(noise, slice_size=10, time_budget=6.0).route(
            bench.circuit, architecture)
        elapsed = time.monotonic() - start
        assert result.solved
        assert result.objective_value is not None
        assert 0.0 < result.objective_value <= 1.0
        # The budget must be respected within a generous grace factor.
        assert elapsed < 30.0

    def test_sliced_noise_aware_reports_objective(self):
        from repro.analysis.suite import tiny_suite
        from repro.core import NoiseAwareSatMapRouter
        from repro.hardware.noise import NoiseModel
        from repro.hardware.topologies import reduced_tokyo_architecture

        architecture = reduced_tokyo_architecture(6)
        noise = NoiseModel.synthetic(architecture, seed=7)
        bench = next(b for b in tiny_suite() if b.num_two_qubit_gates > 10)
        result = NoiseAwareSatMapRouter(noise, slice_size=5, time_budget=10.0).route(
            bench.circuit, architecture)
        assert result.solved
        assert result.num_slices > 1
        assert result.objective_value is not None
