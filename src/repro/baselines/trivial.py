"""The naive shortest-path router (the baseline every tool must beat).

For every two-qubit gate whose operands are not adjacent under the current
mapping, walk one operand along a shortest path towards the other, swapping at
every step, until they meet.  No lookahead, no initial-placement optimisation
beyond an optional interaction-aware start.

The paper does not evaluate this router -- no serious tool would -- but it
serves two purposes in the repository: it provides an upper bound that makes
the cost ratios of the real tools interpretable, and its utter simplicity
makes it the reference implementation for the routing-correctness property
tests (any circuit it routes must verify, and every other router must never
do worse than a constant factor of it on the suite).
"""

from __future__ import annotations

from repro.api import BaseRouter
from repro.baselines.base import (
    RoutedBuilder,
    greedy_interaction_mapping,
    identity_mapping,
)
from repro.circuits.circuit import QuantumCircuit
from repro.core.result import RoutingResult
from repro.hardware.architecture import Architecture


class NaiveShortestPathRouter(BaseRouter):
    """Route every gate by walking its first operand towards its second."""

    name = "naive"

    def __init__(self, time_budget: float = 60.0, verify: bool = True,
                 smart_initial_mapping: bool = False) -> None:
        super().__init__(time_budget=time_budget, verify=verify)
        self.smart_initial_mapping = smart_initial_mapping

    def _route(self, circuit: QuantumCircuit, architecture: Architecture,
               deadline: float) -> RoutingResult:
        if self.smart_initial_mapping:
            initial = greedy_interaction_mapping(circuit, architecture)
        else:
            initial = identity_mapping(circuit, architecture)
        builder = RoutedBuilder(circuit, architecture, initial)

        for gate in circuit:
            self.check_deadline(deadline)
            if not gate.is_two_qubit:
                builder.emit_gate(gate)
                continue
            builder.require_reachable(*gate.qubits)
            first, second = (builder.physical_of(q) for q in gate.qubits)
            if not architecture.are_adjacent(first, second):
                path = architecture.shortest_path(first, second)
                # Swap the first operand along the path until it neighbours
                # the second operand (stop one hop short of the target).
                for step in range(len(path) - 2):
                    builder.emit_swap(path[step], path[step + 1])
            builder.emit_gate(gate)
        return builder.result(self.name)
