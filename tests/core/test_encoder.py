"""Tests for the MaxSAT encoding of QMR (Fig. 5)."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import cx, h
from repro.core.encoder import EncodingOptions, QmrEncoder
from repro.core.variables import NOOP
from repro.hardware.topologies import (
    full_architecture,
    line_architecture,
    tokyo_architecture,
)
from repro.maxsat import MaxSatSolver, MaxSatStatus


def encode(circuit, architecture, **options):
    return QmrEncoder(architecture, EncodingOptions(**options)).encode(circuit)


def two_cx_circuit() -> QuantumCircuit:
    return QuantumCircuit(3, [cx(0, 1), cx(1, 2)])


class TestOptions:
    def test_rejects_zero_swaps_per_gate(self):
        with pytest.raises(ValueError):
            EncodingOptions(swaps_per_gate=0)

    def test_rejects_bad_leading_slots(self):
        with pytest.raises(ValueError):
            EncodingOptions(leading_slots=0)

    def test_rejects_small_commander_threshold(self):
        with pytest.raises(ValueError):
            EncodingOptions(commander_threshold=2)


class TestStepConstruction:
    def test_one_step_per_two_qubit_gate(self):
        encoding = encode(two_cx_circuit(), line_architecture(3))
        assert encoding.num_steps == 2
        assert encoding.step_of_gate == [0, 1]

    def test_single_qubit_gates_do_not_create_steps(self):
        circuit = QuantumCircuit(3, [h(0), cx(0, 1), h(2), cx(1, 2)])
        encoding = encode(circuit, line_architecture(3))
        assert encoding.num_steps == 2

    def test_consecutive_identical_pairs_collapse(self):
        circuit = QuantumCircuit(2, [cx(0, 1), cx(1, 0), cx(0, 1)])
        encoding = encode(circuit, line_architecture(2))
        assert encoding.num_steps == 1
        assert encoding.step_of_gate == [0, 0, 0]

    def test_collapse_can_be_disabled(self):
        circuit = QuantumCircuit(2, [cx(0, 1), cx(0, 1)])
        encoding = encode(circuit, line_architecture(2), collapse_repeated_pairs=False)
        assert encoding.num_steps == 2

    def test_circuit_without_two_qubit_gates(self):
        circuit = QuantumCircuit(3, [h(0), h(1)])
        encoding = encode(circuit, line_architecture(3))
        assert encoding.num_steps == 0
        assert encoding.num_variables > 0  # the free initial map is still encoded

    def test_too_many_logical_qubits_rejected(self):
        circuit = QuantumCircuit(5, [cx(0, 4)])
        with pytest.raises(ValueError):
            encode(circuit, line_architecture(3))


class TestEncodingSize:
    def test_swap_slots_count(self):
        encoding = encode(two_cx_circuit(), line_architecture(3))
        # No leading slot by default: one slot between the two steps.
        assert len(encoding.swap_slots) == 1

    def test_leading_slot_adds_one(self):
        encoding = encode(two_cx_circuit(), line_architecture(3),
                          leading_swap_slot=True)
        assert len(encoding.swap_slots) == 2

    def test_cyclic_adds_trailing_slot(self):
        encoding = encode(two_cx_circuit(), line_architecture(3), cyclic=True)
        assert (encoding.num_steps, 0) in encoding.swap_slots

    def test_soft_clause_per_slot(self):
        encoding = encode(two_cx_circuit(), line_architecture(3))
        assert encoding.num_soft_clauses == len(encoding.swap_slots)

    def test_clause_count_scales_linearly_in_gates(self):
        circuit_small = QuantumCircuit(4, [cx(i % 4, (i + 1) % 4) for i in range(5)])
        circuit_large = QuantumCircuit(4, [cx(i % 4, (i + 1) % 4) for i in range(10)])
        arch = line_architecture(6)
        small = encode(circuit_small, arch)
        large = encode(circuit_large, arch)
        assert large.num_hard_clauses < 2.5 * small.num_hard_clauses

    def test_multiple_swap_slots_per_gate(self):
        encoding = encode(two_cx_circuit(), line_architecture(3), swaps_per_gate=2)
        assert len(encoding.swap_slots) == 2  # two slots for the single transition

    def test_map_variables_exist_for_all_steps(self):
        encoding = encode(two_cx_circuit(), line_architecture(3))
        variables = {encoding.registry.map_var(logical, physical, step)
                     for step in range(encoding.num_steps)
                     for logical in range(3) for physical in range(3)}
        assert len(variables) == 3 * 3 * encoding.num_steps
        assert all(1 <= variable <= encoding.num_variables
                   for variable in variables)


class TestEncodingSemantics:
    def solve(self, encoding):
        return MaxSatSolver().solve(encoding.builder, time_budget=30)

    def test_adjacent_gate_needs_no_swap(self):
        encoding = encode(two_cx_circuit(), line_architecture(3))
        result = self.solve(encoding)
        assert result.is_optimal and result.cost == 0

    def test_full_connectivity_never_needs_swaps(self):
        circuit = QuantumCircuit(4, [cx(0, 1), cx(0, 2), cx(3, 2), cx(0, 3), cx(1, 3)])
        encoding = encode(circuit, full_architecture(4))
        result = self.solve(encoding)
        assert result.is_optimal and result.cost == 0

    def test_running_example_needs_one_swap(self):
        circuit = QuantumCircuit(4, [cx(0, 1), cx(0, 2), cx(3, 2), cx(0, 3)])
        encoding = encode(circuit, line_architecture(4))
        result = self.solve(encoding)
        assert result.is_optimal and result.cost == 1

    def test_fixed_initial_mapping_is_respected(self):
        circuit = QuantumCircuit(3, [cx(0, 2)])
        # Pin 0 -> 0 and 2 -> 2 on a line: they are distance 2 apart, and with
        # no leading swap slot the gate cannot be executed.
        encoding = encode(circuit, line_architecture(3),
                          fixed_initial_mapping={0: 0, 1: 1, 2: 2})
        result = self.solve(encoding)
        assert result.status is MaxSatStatus.UNSATISFIABLE

    def test_fixed_initial_mapping_with_leading_slot(self):
        circuit = QuantumCircuit(3, [cx(0, 2)])
        encoding = encode(circuit, line_architecture(3),
                          fixed_initial_mapping={0: 0, 1: 1, 2: 2},
                          leading_swap_slot=True)
        result = self.solve(encoding)
        assert result.is_optimal and result.cost == 1

    def test_unsolvable_with_one_slot_needs_more(self):
        circuit = QuantumCircuit(4, [cx(0, 3)])
        # Pin the qubits three hops apart; one leading swap is not enough.
        encoding = encode(circuit, line_architecture(4),
                          fixed_initial_mapping={0: 0, 1: 1, 2: 2, 3: 3},
                          leading_swap_slot=True, leading_slots=1)
        assert self.solve(encoding).status is MaxSatStatus.UNSATISFIABLE
        encoding = encode(circuit, line_architecture(4),
                          fixed_initial_mapping={0: 0, 1: 1, 2: 2, 3: 3},
                          leading_swap_slot=True, leading_slots=2)
        result = self.solve(encoding)
        assert result.is_optimal and result.cost == 2

    def test_cyclic_closure_costs_more(self):
        circuit = QuantumCircuit(4, [cx(0, 1), cx(0, 2), cx(3, 2), cx(0, 3)])
        arch = line_architecture(4)
        plain = self.solve(encode(circuit, arch))
        cyclic = self.solve(encode(circuit, arch, cyclic=True))
        assert cyclic.is_optimal
        assert cyclic.cost >= plain.cost

    def test_noop_variable_exists_per_slot(self):
        encoding = encode(two_cx_circuit(), line_architecture(3))
        noops = {encoding.registry.swap_var(NOOP, step, slot)
                 for step, slot in encoding.swap_slots}
        assert len(noops) == len(encoding.swap_slots)
        assert all(1 <= variable <= encoding.num_variables for variable in noops)


class TestNoiseAwareEncoding:
    def test_weighted_soft_clauses(self):
        from repro.hardware.noise import NoiseModel

        arch = line_architecture(3)
        noise = NoiseModel.uniform(arch, two_qubit_error=0.02)
        encoding = encode(two_cx_circuit(), arch, noise_model=noise)
        assert encoding.builder.is_weighted()
        assert encoding.num_soft_clauses > len(encoding.swap_slots)
