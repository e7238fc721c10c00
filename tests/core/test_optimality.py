"""Optimality cross-checks: SATMAP vs the exhaustive optimal search.

These are the most important correctness tests in the repository: they confirm
Theorem 1 empirically by comparing the MaxSAT optimum against an independent
exhaustive optimal router on a range of small instances, and they check that
the relaxations never beat the true optimum (which would indicate a soundness
bug) while staying within a reasonable factor of it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.exact_mqt import ExhaustiveOptimalRouter
from repro.circuits.random_circuits import random_circuit
from repro.core import SatMapRouter
from repro.hardware.topologies import (
    grid_architecture,
    line_architecture,
    reduced_tokyo_architecture,
    ring_architecture,
)
from repro.sat.backends import native_available


ARCHITECTURES = {
    "line4": line_architecture(4),
    "line5": line_architecture(5),
    "ring5": ring_architecture(5),
    "grid2x3": grid_architecture(2, 3),
}


class TestAgainstExhaustiveOptimum:
    @pytest.mark.parametrize("arch_name", list(ARCHITECTURES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_satmap_matches_exhaustive_optimum(self, arch_name, seed):
        architecture = ARCHITECTURES[arch_name]
        circuit = random_circuit(4, 8, seed=seed, single_qubit_ratio=0.0)
        satmap = SatMapRouter(time_budget=60).route(circuit, architecture)
        exact = ExhaustiveOptimalRouter(time_budget=60).route(circuit, architecture)
        assert satmap.solved and exact.solved
        assert satmap.optimal and exact.optimal
        assert satmap.swap_count == exact.swap_count

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_satmap_never_beats_or_loses_to_exhaustive(self, seed):
        architecture = line_architecture(4)
        circuit = random_circuit(4, 6, seed=seed, single_qubit_ratio=0.0)
        satmap = SatMapRouter(time_budget=60).route(circuit, architecture)
        exact = ExhaustiveOptimalRouter(time_budget=60).route(circuit, architecture)
        if satmap.optimal and exact.solved:
            # Soundness: the MaxSAT optimum can never beat the true optimum.
            assert satmap.swap_count >= exact.swap_count
            if satmap.swap_count != exact.swap_count:
                # The default encoding offers one SWAP slot per transition, so
                # its optimum may legitimately exceed the true optimum when a
                # transition needs several SWAPs (e.g. seed 367 needs two).
                # Granting diameter-many slots makes the encoding complete, at
                # which point the optima must coincide.
                escalated = SatMapRouter(
                    time_budget=60,
                    swaps_per_gate=architecture.diameter()).route(circuit,
                                                                  architecture)
                # These 4-qubit/6-gate instances solve well within the
                # budget; requiring optimality keeps the check non-vacuous.
                assert escalated.optimal
                assert escalated.swap_count == exact.swap_count

    @pytest.mark.parametrize("seed", [5, 6])
    def test_relaxations_never_beat_the_optimum(self, seed):
        architecture = grid_architecture(2, 3)
        circuit = random_circuit(5, 12, seed=seed, single_qubit_ratio=0.0)
        optimal = SatMapRouter(time_budget=60).route(circuit, architecture)
        sliced = SatMapRouter(slice_size=4, time_budget=60).route(circuit, architecture)
        assert optimal.solved and sliced.solved
        assert sliced.swap_count >= optimal.swap_count

    def test_heuristics_never_beat_the_optimum(self):
        from repro.baselines import SabreRouter, TketLikeRouter

        architecture = line_architecture(5)
        circuit = random_circuit(5, 10, seed=17, single_qubit_ratio=0.0)
        optimal = SatMapRouter(time_budget=60).route(circuit, architecture)
        assert optimal.optimal
        for router in (SabreRouter(), TketLikeRouter()):
            heuristic = router.route(circuit, architecture)
            assert heuristic.solved
            assert heuristic.swap_count >= optimal.swap_count


class TestNativeCoreSoundness:
    @pytest.mark.skipif(not native_available(),
                        reason="the compiled solve core is not built")
    @pytest.mark.xfail(strict=True, reason=(
        "native core unsound: analyze() clears mark[] over the compacted "
        "learnt clause, so marks of minimised-away literals survive and "
        "later minimisation drops literals that are not implied"))
    def test_native_optimum_matches_the_exhaustive_optimum(self):
        # The exhaustive router and the python core both find 1 SWAP; the
        # native core returns 2 and claims optimality.
        circuit = random_circuit(5, 14, seed=0, interaction_bias=0.5)
        architecture = reduced_tokyo_architecture(8)
        native = SatMapRouter(swaps_per_gate=2, solver_backend="native",
                              time_budget=60).route(circuit, architecture)
        assert native.optimal
        assert native.swap_count == 1
