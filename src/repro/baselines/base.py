"""Shared infrastructure for the baseline routers.

Every baseline transforms a logical circuit into a physical circuit by
maintaining a logical-to-physical map and inserting SWAPs.
:class:`RoutedBuilder` captures that pattern so each algorithm only has to
decide *which* swaps to insert; emission, mapping updates, swap counting, and
result assembly are shared.

The builder keeps the evolving map in two flat ``array('i')`` buffers --
logical->physical and its inverse -- so :meth:`RoutedBuilder.physical_of`
and :meth:`RoutedBuilder.logical_at` are O(1) array reads (the inverse used
to be an O(n) scan on every SWAP score).  Emitted gates stream straight into
the routed circuit's IR columns without boxing a ``Gate`` per emission.

On disconnected coupling graphs the builder *rejects* gates whose operands
sit in different components (:meth:`RoutedBuilder.require_reachable`) instead
of letting the heuristics score the unreachable-distance sentinel forever;
the error surfaces as an ERROR result through
:class:`~repro.api.BaseRouter`'s capture.

The deadline/verify/error-capture scaffolding lives in
:class:`repro.api.BaseRouter`, shared by *all* routers (the SATMAP family
included).
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.circuits.ir import SWAP_OP, CircuitIR
from repro.core.result import RoutingResult, RoutingStatus
from repro.hardware.architecture import Architecture


class UnroutableGateError(ValueError):
    """A two-qubit gate's operands lie in different connectivity components."""


class RoutedBuilder:
    """Incrementally builds a physical circuit from an evolving mapping."""

    def __init__(self, circuit: QuantumCircuit, architecture: Architecture,
                 initial_mapping: dict[int, int]) -> None:
        self.original = circuit
        self.architecture = architecture
        self.initial_mapping = dict(initial_mapping)
        self.mapping = dict(initial_mapping)  # logical -> physical
        self.routed = QuantumCircuit(architecture.num_qubits,
                                     name=f"{circuit.name}@{architecture.name}")
        self.swap_count = 0
        # Flat views of the evolving map: phys_of[logical] and log_at[physical],
        # -1 for unmapped/empty.  Kept in lock-step with the ``mapping`` dict.
        size = max([circuit.num_qubits, *initial_mapping.keys()]) + 1 \
            if initial_mapping else circuit.num_qubits
        self.phys_of = [-1] * size
        self.log_at = [-1] * architecture.num_qubits
        for logical, physical in initial_mapping.items():
            self.phys_of[logical] = physical
            self.log_at[physical] = logical
        self._distances = architecture.flat_distance_lookup()
        self._unreachable = architecture.unreachable_distance
        self._num_physical = architecture.num_qubits
        self._routed_ir = self.routed._writable_ir()

    def physical_of(self, logical: int) -> int:
        return self.phys_of[logical]

    def logical_at(self, physical: int) -> int | None:
        logical = self.log_at[physical]
        return None if logical < 0 else logical

    def can_execute(self, gate: Gate) -> bool:
        """Whether a gate is executable under the current mapping."""
        if not gate.is_two_qubit:
            return True
        return self.can_execute_pair(gate.qubits[0], gate.qubits[1])

    def can_execute_pair(self, logical_a: int, logical_b: int) -> bool:
        """Whether two logical qubits currently sit on adjacent physical ones."""
        physical_a = self.phys_of[logical_a]
        physical_b = self.phys_of[logical_b]
        if physical_a < 0 or physical_b < 0:
            raise ValueError(
                f"logical qubit {logical_a if physical_a < 0 else logical_b} "
                f"is not in the initial mapping"
            )
        return (self._distances[physical_a * self._num_physical
                                + physical_b] == 1)

    def require_reachable(self, logical_a: int, logical_b: int) -> None:
        """Reject a gate whose operands cannot ever be brought together.

        On a disconnected coupling graph the distance matrix stores a finite
        sentinel for unreachable pairs; scoring it silently would make the
        heuristics chase an impossible gate forever.  Raising here turns the
        situation into an ERROR result with an explanatory note instead.
        Unmapped operands (a partial ``initial_mapping``) are rejected too,
        before their ``-1`` placeholder could wrap a distance lookup.
        """
        physical_a = self.phys_of[logical_a]
        physical_b = self.phys_of[logical_b]
        if physical_a < 0 or physical_b < 0:
            raise ValueError(
                f"logical qubit {logical_a if physical_a < 0 else logical_b} "
                f"is not in the initial mapping"
            )
        if (self._distances[physical_a * self._num_physical + physical_b]
                >= self._unreachable):
            raise UnroutableGateError(
                f"logical qubits {logical_a} and {logical_b} are mapped to "
                f"physical qubits {physical_a} and {physical_b}, which are "
                f"unreachable from each other on {self.architecture.name} "
                f"(disconnected coupling graph)"
            )

    def emit_gate(self, gate: Gate) -> None:
        """Emit an original gate at its current physical position."""
        self.emit_op(gate.name, gate.qubits, gate.params)

    def emit_op(self, name: str, qubits: tuple[int, ...],
                params: tuple[str, ...] = ()) -> None:
        """Emit a gate given as plain data at its current physical position."""
        phys_of = self.phys_of
        if len(qubits) == 2:
            physical = (phys_of[qubits[0]], phys_of[qubits[1]])
            if (physical[0] < 0 or physical[1] < 0
                    or self._distances[physical[0] * self._num_physical
                                       + physical[1]] != 1):
                raise ValueError(
                    f"gate {name} on logical {qubits} is not executable: "
                    f"physical {physical} are not adjacent"
                )
        else:
            physical = (phys_of[qubits[0]],)
            if physical[0] < 0:
                raise ValueError(f"logical qubit {qubits[0]} is unmapped")
        self._routed_ir.append(name, physical, params)

    def emit_index(self, ir: CircuitIR, index: int) -> None:
        """Emit gate ``index`` of ``ir`` without any name round-trip.

        The routers' execution loops use this: opcode, operands, and params
        move from the source columns to the routed columns directly.
        """
        absolute = ir.start + index
        phys_of = self.phys_of
        second = ir.qb[absolute]
        if second >= 0:
            physical = (phys_of[ir.qa[absolute]], phys_of[second])
            if (physical[0] < 0 or physical[1] < 0
                    or self._distances[physical[0] * self._num_physical
                                       + physical[1]] != 1):
                raise ValueError(
                    f"gate #{index} on logical ({ir.qa[absolute]}, {second}) "
                    f"is not executable: physical {physical} are not adjacent"
                )
        else:
            physical = (phys_of[ir.qa[absolute]],)
            if physical[0] < 0:
                raise ValueError(
                    f"logical qubit {ir.qa[absolute]} is unmapped")
        self._routed_ir.append_coded(ir.op[absolute], physical,
                                     ir.params.get(absolute, ()))

    def emit_swap(self, physical_a: int, physical_b: int) -> None:
        """Insert a SWAP on a physical edge and update the mapping."""
        if not self.architecture.are_adjacent(physical_a, physical_b):
            raise ValueError(f"({physical_a}, {physical_b}) is not an edge")
        log_at = self.log_at
        logical_a = log_at[physical_a]
        logical_b = log_at[physical_b]
        if logical_a >= 0:
            self.phys_of[logical_a] = physical_b
            self.mapping[logical_a] = physical_b
        if logical_b >= 0:
            self.phys_of[logical_b] = physical_a
            self.mapping[logical_b] = physical_a
        log_at[physical_a] = logical_b
        log_at[physical_b] = logical_a
        self._routed_ir.append_coded(SWAP_OP, (physical_a, physical_b))
        self.swap_count += 1

    def result(self, router_name: str, optimal: bool = False,
               status: RoutingStatus = RoutingStatus.FEASIBLE,
               **extra) -> RoutingResult:
        return RoutingResult(
            status=status,
            router_name=router_name,
            circuit_name=self.original.name,
            initial_mapping=self.initial_mapping,
            final_mapping=dict(self.mapping),
            routed_circuit=self.routed,
            swap_count=self.swap_count,
            optimal=optimal,
            **extra,
        )


def identity_mapping(circuit: QuantumCircuit, architecture: Architecture) -> dict[int, int]:
    """The trivial mapping: logical qubit ``i`` on physical qubit ``i``."""
    if circuit.num_qubits > architecture.num_qubits:
        raise ValueError("circuit has more qubits than the architecture")
    return {logical: logical for logical in range(circuit.num_qubits)}


def interaction_counts(circuit: QuantumCircuit) -> dict[tuple[int, int], int]:
    """How many times each (unordered) logical qubit pair interacts."""
    counts: dict[tuple[int, int], int] = {}
    for first, second in circuit.interaction_sequence():
        key = (first, second) if first < second else (second, first)
        counts[key] = counts.get(key, 0) + 1
    return counts


def greedy_interaction_mapping(circuit: QuantumCircuit,
                               architecture: Architecture) -> dict[int, int]:
    """Initial map placing strongly-interacting logical qubits on well-connected
    physical qubits.

    Logical qubits are ordered by total interaction weight; each is placed on
    the free physical qubit that minimises the distance-weighted cost to the
    already-placed qubits it interacts with (ties broken by degree).  This is
    the style of graph placement tket's default pass uses.
    """
    counts = interaction_counts(circuit)
    weight_of: dict[int, int] = {q: 0 for q in range(circuit.num_qubits)}
    partners: dict[int, dict[int, int]] = {q: {} for q in range(circuit.num_qubits)}
    for (first, second), count in counts.items():
        weight_of[first] += count
        weight_of[second] += count
        partners[first][second] = count
        partners[second][first] = count

    order = sorted(range(circuit.num_qubits), key=lambda q: -weight_of[q])
    distance = architecture.flat_distance_matrix()
    num_physical = architecture.num_qubits
    mapping: dict[int, int] = {}
    free = set(range(architecture.num_qubits))
    for logical in order:
        best_physical = None
        best_cost = None
        placed = [(count, mapping[partner])
                  for partner, count in partners[logical].items()
                  if partner in mapping]
        for physical in sorted(free):
            row = physical * num_physical
            cost = 0.0
            for count, partner_physical in placed:
                cost += count * distance[row + partner_physical]
            cost -= 0.001 * architecture.degree(physical)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_physical = physical
        assert best_physical is not None
        mapping[logical] = best_physical
        free.discard(best_physical)
    return mapping
