"""Turning a MaxSAT model back into maps, SWAPs, and a routed circuit.

Given a model of the Fig. 5 constraints, this module reads off the initial
and final maps and the selected SWAP per slot, completes the maps over unused
logical/physical qubits, and rewrites the original circuit into a *physical*
circuit: every gate operates on physical qubit indices and explicit ``swap``
gates are inserted where the model placed them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.core.encoder import QmrEncoding


@dataclass
class ExtractedSolution:
    """Model contents in routing terms."""

    #: The maps extraction reads, step index -> {logical: physical}: the
    #: initial (root) step and the final step, as the model placed them.
    step_mappings: dict[int, dict[int, int]]
    #: Selected swap per slot, in slot order: (step, slot, edge-or-None).
    slot_swaps: list[tuple[int, int, tuple[int, int] | None]]
    #: Total initial map including qubits the solver left unplaced.
    initial_mapping: dict[int, int] = field(default_factory=dict)
    final_mapping: dict[int, int] = field(default_factory=dict)

    @property
    def swap_count(self) -> int:
        return sum(1 for _, _, edge in self.slot_swaps if edge is not None)


def extract_solution(encoding: QmrEncoding, model: Mapping[int, bool]) -> ExtractedSolution:
    """Read the initial and final maps and every slot's SWAP out of a model.

    Only the root and final map rows and the slots' choice variables are
    read, so extraction costs the same whatever the number of steps.  A
    slot with no edge selected counts as a no-op; should the no-op be unset
    too, the model has a hole that the verifier catches through the
    resulting invalid gate.
    """
    layout = encoding.layout
    get = model.get
    slot_swaps: list[tuple[int, int, tuple[int, int] | None]] = []
    edges = encoding.architecture.edges
    for step, slot in encoding.swap_slots:
        base = layout.slot_base(step, slot)
        chosen = next((edge for offset, edge in enumerate(edges, 1)
                       if get(base + offset, False)), None)
        slot_swaps.append((step, slot, chosen))

    num_physical = encoding.architecture.num_qubits
    step_mappings: dict[int, dict[int, int]] = {}
    for step in (encoding.root_step, encoding.final_step):
        placed: dict[int, int] = {}
        for logical in range(encoding.num_logical):
            start = layout.map_var(logical, 0, step)
            for physical in range(num_physical):
                if get(start + physical, False):
                    placed[logical] = physical
        step_mappings[step] = placed
    initial = complete_mapping(step_mappings[encoding.root_step],
                               encoding.num_logical, num_physical)
    final = complete_mapping(step_mappings[encoding.final_step],
                             encoding.num_logical, num_physical)
    return ExtractedSolution(step_mappings, slot_swaps, initial, final)


def complete_mapping(partial: dict[int, int], num_logical: int,
                     num_physical: int) -> dict[int, int]:
    """Extend a partial injective map to all logical qubits deterministically."""
    mapping = dict(partial)
    used_physical = set(mapping.values())
    if len(used_physical) != len(mapping):
        raise ValueError(f"mapping is not injective: {mapping}")
    free_physical = [p for p in range(num_physical) if p not in used_physical]
    for logical in range(num_logical):
        if logical not in mapping:
            if not free_physical:
                raise ValueError("not enough physical qubits to complete the mapping")
            mapping[logical] = free_physical.pop(0)
    return mapping


def build_routed_circuit(circuit: QuantumCircuit, encoding: QmrEncoding,
                         solution: ExtractedSolution) -> QuantumCircuit:
    """Rewrite ``circuit`` onto physical qubits, inserting the selected SWAPs.

    The result acts on ``architecture.num_qubits`` physical qubits.  SWAPs for
    a step are inserted immediately before the first original gate of that
    step; the trailing slot of a cyclic encoding (if any) is appended at the
    end.
    """
    architecture = encoding.architecture
    routed = QuantumCircuit(architecture.num_qubits, name=f"{circuit.name}@{architecture.name}")
    current = dict(solution.initial_mapping)

    swaps_by_step: dict[int, list[tuple[int, int]]] = {}
    for step, slot, edge in solution.slot_swaps:
        if edge is not None:
            swaps_by_step.setdefault(step, []).append(edge)

    def apply_swap(edge: tuple[int, int]) -> None:
        physical_a, physical_b = edge
        logical_on_a = _logical_at(current, physical_a)
        logical_on_b = _logical_at(current, physical_b)
        if logical_on_a is not None:
            current[logical_on_a] = physical_b
        if logical_on_b is not None:
            current[logical_on_b] = physical_a
        routed.append(Gate("swap", (physical_a, physical_b)))

    emitted_steps: set[int] = set()
    two_qubit_index = 0
    for gate in circuit.gates:
        if gate.is_two_qubit:
            step = encoding.step_of_gate[two_qubit_index]
            two_qubit_index += 1
            if step not in emitted_steps:
                emitted_steps.add(step)
                for edge in swaps_by_step.get(step, []):
                    apply_swap(edge)
        routed.append(Gate(gate.name, tuple(current[q] for q in gate.qubits), gate.params))

    # Trailing slot (cyclic closure) uses step index == len(steps).
    trailing_step = len(encoding.steps)
    for edge in swaps_by_step.get(trailing_step, []):
        apply_swap(edge)

    solution.final_mapping = dict(current)
    return routed


def _logical_at(mapping: dict[int, int], physical: int) -> int | None:
    for logical, position in mapping.items():
        if position == physical:
            return logical
    return None
