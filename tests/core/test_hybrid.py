"""Tests for the hybrid router (MaxSAT placement + heuristic routing)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import identity_mapping
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import cx
from repro.circuits.named_circuits import ghz_circuit, qft_circuit
from repro.circuits.random_circuits import random_circuit
from repro.core.hybrid import (
    HybridSatMapRouter,
    placement_adjacency_score,
    placement_instance,
)
from repro.core.satmap import SatMapRouter
from repro.core.verifier import verify_routing
from repro.hardware.topologies import (
    grid_architecture,
    line_architecture,
    reduced_tokyo_architecture,
    ring_architecture,
)
from repro.sat.dimacs import write_wcnf


def _circuit(num_qubits, gates):
    circuit = QuantumCircuit(num_qubits)
    circuit.extend(gates)
    return circuit


class TestPlacement:
    def test_embeddable_interaction_graph_scores_everything(self):
        circuit = ghz_circuit(4, linear=True)
        architecture = line_architecture(4)
        router = HybridSatMapRouter(time_budget=20)
        mapping, stats = router.solve_placement(circuit, architecture, time_budget=10)
        assert placement_adjacency_score(circuit, architecture, mapping) == \
            circuit.num_two_qubit_gates
        assert stats["num_soft_clauses"] == 3

    def test_placement_is_injective_and_total(self):
        circuit = random_circuit(num_qubits=4, num_two_qubit_gates=10, seed=5)
        architecture = ring_architecture(6)
        mapping, _ = HybridSatMapRouter(time_budget=20).solve_placement(
            circuit, architecture, time_budget=10)
        assert len(mapping) == 4
        assert len(set(mapping.values())) == 4
        assert all(0 <= physical < 6 for physical in mapping.values())

    def test_placement_beats_identity_when_identity_is_bad(self):
        # Interactions are (0,2) and (1,3): the identity mapping on a line puts
        # both pairs at distance two; an optimal placement makes them adjacent.
        circuit = _circuit(4, [cx(0, 2), cx(0, 2), cx(1, 3), cx(1, 3)])
        architecture = line_architecture(4)
        mapping, _ = HybridSatMapRouter(time_budget=20).solve_placement(
            circuit, architecture, time_budget=10)
        optimal_score = placement_adjacency_score(circuit, architecture, mapping)
        identity_score = placement_adjacency_score(
            circuit, architecture, identity_mapping(circuit, architecture))
        assert optimal_score >= identity_score
        assert optimal_score == circuit.num_two_qubit_gates


class TestPlacementInstance:
    """The placement WCNF, pinned to the text of clause-at-a-time emission."""

    # sha256 of the WCNF text, variables, hard and soft clause counts.
    GOLDEN = [
        (reduced_tokyo_architecture(8), random_circuit(5, 12, seed=21),
         "902310ad167f11c6bd0399421bd2f144f529c37246b1e9e06ec6d8f4b710e2d2",
         184, 513, 6),
        (line_architecture(4), random_circuit(3, 6, seed=22),
         "d315c59443c7e5db6ef2ef53a6c902c0dc281ddb020ac236ca926efd9c8084f1",
         30, 69, 3),
    ]

    @pytest.mark.parametrize("case", range(len(GOLDEN)))
    def test_wcnf_text_is_unchanged(self, case):
        architecture, circuit, digest, variables, hard, soft = self.GOLDEN[case]
        builder, map_var = placement_instance(circuit, architecture)
        text = write_wcnf(builder.to_dimacs())
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert (builder.num_vars, builder.num_hard, builder.num_soft) == (
            variables, hard, soft)
        assert len(map_var) == circuit.num_qubits * architecture.num_qubits


class TestHybridRouting:
    def test_routed_circuit_verifies(self):
        circuit = random_circuit(num_qubits=5, num_two_qubit_gates=15, seed=1)
        architecture = grid_architecture(2, 3)
        result = HybridSatMapRouter(time_budget=30).route(circuit, architecture)
        assert result.solved
        verify_routing(circuit, result.routed_circuit, result.initial_mapping,
                       architecture)

    def test_zero_swap_instances_stay_zero_swap(self):
        circuit = ghz_circuit(5, linear=True)
        result = HybridSatMapRouter(time_budget=30).route(circuit, line_architecture(5))
        assert result.solved
        assert result.swap_count == 0

    def test_reports_placement_statistics(self):
        circuit = random_circuit(num_qubits=4, num_two_qubit_gates=8, seed=3)
        result = HybridSatMapRouter(time_budget=30).route(circuit, ring_architecture(5))
        assert result.num_variables > 0
        assert result.num_hard_clauses > 0
        assert "placement" in result.notes

    def test_too_many_logical_qubits_is_an_error(self):
        circuit = random_circuit(num_qubits=6, num_two_qubit_gates=5, seed=0)
        result = HybridSatMapRouter(time_budget=10).route(circuit, line_architecture(4))
        assert not result.solved

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HybridSatMapRouter(time_budget=0)
        with pytest.raises(ValueError):
            HybridSatMapRouter(placement_share=1.5)

    def test_competitive_with_full_satmap_on_small_instances(self):
        circuit = qft_circuit(4)
        architecture = reduced_tokyo_architecture(5)
        hybrid = HybridSatMapRouter(time_budget=30).route(circuit, architecture)
        full = SatMapRouter(time_budget=30).route(circuit, architecture)
        assert hybrid.solved and full.solved
        # The hybrid router gives up optimal routing; it must stay within a
        # small factor of full SATMAP on instances this size.
        assert hybrid.swap_count <= full.swap_count + 4

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_random_circuits_verify(self, seed):
        circuit = random_circuit(num_qubits=4, num_two_qubit_gates=8, seed=seed)
        architecture = ring_architecture(5)
        result = HybridSatMapRouter(time_budget=20).route(circuit, architecture)
        assert result.solved
        verify_routing(circuit, result.routed_circuit, result.initial_mapping,
                       architecture)


class TestSabreInitialMappingOption:
    def test_sabre_respects_fixed_initial_mapping(self):
        from repro.baselines.sabre import SabreRouter

        circuit = ghz_circuit(4, linear=True)
        architecture = line_architecture(4)
        fixed = {0: 3, 1: 2, 2: 1, 3: 0}
        result = SabreRouter(initial_mapping=fixed).route(circuit, architecture)
        assert result.solved
        assert result.initial_mapping == fixed
