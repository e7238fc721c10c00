"""Tests for variable bookkeeping and model extraction."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import cx, h
from repro.core.encoder import EncodingOptions, QmrEncoder
from repro.core.extraction import (
    build_routed_circuit,
    complete_mapping,
    extract_solution,
)
from repro.core.variables import NOOP, VariableRegistry
from repro.hardware.topologies import line_architecture
from repro.maxsat import MaxSatSolver
from repro.maxsat.wcnf import WcnfBuilder


class TestVariableRegistry:
    def setup_method(self):
        self.registry = VariableRegistry(WcnfBuilder())

    def test_map_var_is_stable(self):
        first = self.registry.map_var(0, 1, 2)
        second = self.registry.map_var(0, 1, 2)
        assert first == second

    def test_distinct_keys_get_distinct_vars(self):
        assert self.registry.map_var(0, 1, 0) != self.registry.map_var(1, 0, 0)

    def test_swap_var_normalises_edge_order(self):
        assert (self.registry.swap_var((2, 1), 0)
                == self.registry.swap_var((1, 2), 0))

    def test_noop_edge_is_allowed(self):
        variable = self.registry.swap_var(NOOP, 3)
        assert self.registry.lookup_swap(variable) == (NOOP, 3, 0)

    def test_reverse_lookup_map(self):
        variable = self.registry.map_var(2, 3, 1)
        assert self.registry.lookup_map(variable) == (2, 3, 1)

    def test_reverse_lookup_unknown_returns_none(self):
        assert self.registry.lookup_map(999) is None

    def test_counters(self):
        self.registry.map_var(0, 0, 0)
        self.registry.swap_var((0, 1), 0)
        assert self.registry.num_map_vars == 1
        assert self.registry.num_swap_vars == 1


class TestFreeze:
    EDGES = ((0, 1), (1, 2))

    def setup_method(self):
        self.registry = VariableRegistry(WcnfBuilder())

    def test_layout_matches_the_registry(self):
        for step in (0, 1):
            for logical in range(2):
                self.registry.map_row(logical, step, 3)
        self.registry.swap_var(NOOP, 1)
        for edge in self.EDGES:
            self.registry.swap_var(edge, 1)
        layout = self.registry.freeze(2, 3, self.EDGES, [(1, 0)])
        for (logical, physical, step), variable in self.registry.map_vars.items():
            assert layout.map_var(logical, physical, step) == variable
        for (edge, step, slot), variable in self.registry.swap_vars.items():
            assert layout.swap_var(edge, step, slot) == variable

    def test_a_step_missing_a_row_is_rejected(self):
        self.registry.map_row(0, 0, 3)
        self.registry.map_row(0, 1, 3)
        self.registry.map_row(1, 1, 3)
        with pytest.raises(ValueError, match="step 0 lacks .* qubit 1"):
            self.registry.freeze(2, 3, self.EDGES, [])

    def test_a_non_contiguous_slot_is_rejected(self):
        self.registry.swap_var(NOOP, 1)
        self.registry.swap_var((1, 2), 1)
        self.registry.swap_var((0, 1), 1)
        with pytest.raises(ValueError, match="not contiguous"):
            self.registry.freeze(0, 3, self.EDGES, [(1, 0)])

    def test_unallocated_steps_and_qubits_raise(self):
        for logical in range(2):
            self.registry.map_row(logical, 0, 3)
        layout = self.registry.freeze(2, 3, self.EDGES, [])
        for key in ((0, 0, 1), (2, 0, 0), (0, 3, 0)):
            with pytest.raises(KeyError):
                layout.map_var(*key)


class TestCompleteMapping:
    def test_fills_missing_qubits_deterministically(self):
        mapping = complete_mapping({0: 2}, num_logical=3, num_physical=4)
        assert mapping[0] == 2
        assert sorted(mapping) == [0, 1, 2]
        assert len(set(mapping.values())) == 3

    def test_rejects_non_injective_input(self):
        with pytest.raises(ValueError):
            complete_mapping({0: 1, 1: 1}, 2, 3)

    def test_rejects_when_not_enough_physical_qubits(self):
        with pytest.raises(ValueError):
            complete_mapping({}, num_logical=4, num_physical=3)

    def test_already_complete_mapping_unchanged(self):
        mapping = {0: 1, 1: 0, 2: 2}
        assert complete_mapping(dict(mapping), 3, 3) == mapping


class TestExtraction:
    def _solve(self, circuit, architecture, **options):
        encoding = QmrEncoder(architecture, EncodingOptions(**options)).encode(circuit)
        result = MaxSatSolver().solve(encoding.builder, time_budget=30)
        assert result.has_model
        return encoding, result.model

    def test_extracted_mapping_is_injective_at_every_step(self):
        circuit = QuantumCircuit(4, [cx(0, 1), cx(0, 2), cx(3, 2), cx(0, 3)])
        encoding, model = self._solve(circuit, line_architecture(4))
        solution = extract_solution(encoding, model)
        for mapping in solution.step_mappings.values():
            assert len(set(mapping.values())) == len(mapping)
        # Extraction reads only the root and final rows; read every step's
        # map through the layout too.
        layout = encoding.registry
        for step in range(encoding.root_step, encoding.final_step + 1):
            placed = [physical for logical in range(encoding.num_logical)
                      for physical in range(4)
                      if model.get(layout.map_var(logical, physical, step))]
            assert len(placed) == encoding.num_logical
            assert len(set(placed)) == len(placed)

    def test_swap_count_matches_model_cost(self):
        circuit = QuantumCircuit(4, [cx(0, 1), cx(0, 2), cx(3, 2), cx(0, 3)])
        encoding, model = self._solve(circuit, line_architecture(4))
        solution = extract_solution(encoding, model)
        assert solution.swap_count == 1

    def test_initial_mapping_is_total(self):
        circuit = QuantumCircuit(5, [cx(0, 1)])
        encoding, model = self._solve(circuit, line_architecture(5))
        solution = extract_solution(encoding, model)
        assert sorted(solution.initial_mapping) == list(range(5))

    def test_routed_circuit_contains_original_gates_plus_swaps(self):
        circuit = QuantumCircuit(4, [h(0), cx(0, 1), cx(0, 2), cx(3, 2), cx(0, 3)])
        encoding, model = self._solve(circuit, line_architecture(4))
        solution = extract_solution(encoding, model)
        routed = build_routed_circuit(circuit, encoding, solution)
        assert len(routed) == len(circuit) + solution.swap_count
        assert routed.num_swaps == solution.swap_count

    def test_routed_circuit_acts_on_physical_qubits(self):
        circuit = QuantumCircuit(3, [cx(0, 2)])
        arch = line_architecture(5)
        encoding, model = self._solve(circuit, arch)
        solution = extract_solution(encoding, model)
        routed = build_routed_circuit(circuit, encoding, solution)
        assert routed.num_qubits == arch.num_qubits

    def test_final_mapping_updated_by_routed_builder(self):
        circuit = QuantumCircuit(4, [cx(0, 1), cx(0, 2), cx(3, 2), cx(0, 3)])
        encoding, model = self._solve(circuit, line_architecture(4))
        solution = extract_solution(encoding, model)
        build_routed_circuit(circuit, encoding, solution)
        assert sorted(solution.final_mapping) == list(range(4))
        assert len(set(solution.final_mapping.values())) == 4
