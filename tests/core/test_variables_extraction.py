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
from repro.core.variables import NOOP, VariableLayout
from repro.hardware.topologies import line_architecture
from repro.maxsat import MaxSatSolver
from repro.maxsat.wcnf import WcnfBuilder

from test_encoding_golden import CASES


class TestVariableLayout:
    EDGES = ((0, 1), (1, 2))

    def setup_method(self):
        self.builder = WcnfBuilder()
        self.layout = VariableLayout(3, 4, self.EDGES)

    def test_map_var_is_stable(self):
        first = self.layout.row(self.builder, 0, 2)
        second = self.layout.row(self.builder, 0, 2)
        assert first == second
        assert self.layout.map_var(0, 1, 2) == self.layout.map_var(0, 1, 2) == first[1]

    def test_distinct_keys_get_distinct_vars(self):
        for logical in (0, 1):
            self.layout.row(self.builder, logical, 0)
        assert self.layout.map_var(0, 1, 0) != self.layout.map_var(1, 0, 0)

    def test_swap_var_normalises_edge_order(self):
        self.layout.slot(self.builder, 0, 0)
        assert (self.layout.swap_var((2, 1), 0)
                == self.layout.swap_var((1, 2), 0))

    def test_noop_edge_is_allowed(self):
        choices = self.layout.slot(self.builder, 3, 0)
        variable = self.layout.swap_var(NOOP, 3)
        assert variable == choices[0]
        assert self.layout.lookup_swap(variable) == (NOOP, 3, 0)

    def test_reverse_lookup_map(self):
        self.layout.row(self.builder, 2, 1)
        variable = self.layout.map_var(2, 3, 1)
        assert self.layout.lookup_map(variable) == (2, 3, 1)

    def test_reverse_lookup_unknown_returns_none(self):
        self.layout.row(self.builder, 0, 0)
        assert self.layout.lookup_map(999) is None
        assert self.layout.lookup_swap(999) is None

    def test_rows_and_slots_are_consecutive_in_allocation_order(self):
        assert self.layout.row(self.builder, 1, 0) == range(1, 5)
        self.builder.new_var()  # an auxiliary variable in between
        assert self.layout.slot(self.builder, 1, 0) == range(6, 9)
        assert self.layout.row(self.builder, 0, 0) == range(9, 13)
        assert self.builder.num_vars == 12
        assert list(self.layout.row_starts(0)) == [9, 1, 0]
        assert [self.layout.swap_var(edge, 1) for edge in (NOOP, *self.EDGES)] \
            == [6, 7, 8]
        assert self.layout.slot_base(1) == 6

    def test_unallocated_steps_and_qubits_raise(self):
        for logical in range(2):
            self.layout.row(self.builder, logical, 0)
        for key in ((0, 0, 1), (2, 0, 0), (3, 0, 0), (0, 4, 0)):
            with pytest.raises(KeyError):
                self.layout.map_var(*key)
        with pytest.raises(KeyError):
            self.layout.swap_var(NOOP, 0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_golden_case_round_trips_through_the_lookups(name):
    """Map and swap variables invert exactly; auxiliaries look up to nothing."""
    architecture, circuit, options, _ = CASES[name]
    encoding = QmrEncoder(architecture, EncodingOptions(**options)).encode(circuit)
    layout = encoding.layout
    num_physical = architecture.num_qubits
    maps = {layout.map_var(logical, physical, step): (logical, physical, step)
            for step in range(encoding.root_step, encoding.final_step + 1)
            for logical in range(encoding.num_logical)
            for physical in range(num_physical)}
    swaps = {layout.swap_var(edge, step, slot): (edge, step, slot)
             for step, slot in encoding.swap_slots
             for edge in (NOOP, *architecture.edges)}
    assert len(maps) == (encoding.num_logical * num_physical
                         * (encoding.final_step - encoding.root_step + 1))
    assert len(swaps) == len(encoding.swap_slots) * (1 + len(architecture.edges))
    for variable in range(1, encoding.num_variables + 1):
        found_map = layout.lookup_map(variable)
        found_swap = layout.lookup_swap(variable)
        if variable in maps:
            assert (found_map, found_swap) == (maps[variable], None)
        elif variable in swaps:
            assert (found_map, found_swap) == (None, swaps[variable])
        elif found_map is not None:
            # The intermediate map between two chained slots of one step.
            assert found_swap is None and found_map[2] >= 10_000
            assert layout.map_var(*found_map) == variable
        else:
            assert found_swap is None  # an auxiliary variable
    root = encoding.root_step
    for key in ((encoding.num_logical, 0, root), (0, num_physical, root),
                (0, 0, encoding.final_step + 1)):
        with pytest.raises(KeyError):
            layout.map_var(*key)
    with pytest.raises(KeyError):
        layout.swap_var(NOOP, root - 1)


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
        layout = encoding.layout
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
