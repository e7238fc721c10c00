"""EX-MQT-style exact optimal routing via uniform-cost search.

The "exact" tool of the MQT suite (Wille, Burgholzer, Zulehner, DAC 2019)
computes a provably minimal number of SWAPs by exhaustively exploring the
space of mappings.  This module reproduces that behaviour with a uniform-cost
(Dijkstra) search over the joint state ``(next gate index, partial placement
of the logical qubits used so far)``:

* advancing past a two-qubit gate is free when its qubits are adjacent;
* placing a so-far-unplaced logical qubit on any free physical qubit is free
  (the initial mapping is chosen lazily, which is exactly the freedom the QMR
  problem gives);
* swapping two adjacent physical qubits costs 1.

The search is optimal but explores an exponential state space, so it only
completes on small circuits -- the same scaling wall the paper reports for
EX-MQT (largest circuit solved: 23 two-qubit gates).  A node-expansion cap and
the deadline turn larger instances into TIMEOUT results instead of hangs.
"""

from __future__ import annotations

import heapq
import itertools

from repro.api import BaseRouter
from repro.baselines.base import RoutedBuilder
from repro.circuits.circuit import QuantumCircuit
from repro.core.extraction import complete_mapping
from repro.core.result import RoutingResult, RoutingStatus
from repro.hardware.architecture import Architecture


class ExhaustiveOptimalRouter(BaseRouter):
    """Provably optimal QMR by exhaustive search (EX-MQT stand-in)."""

    name = "EX-MQT-like"

    def __init__(self, time_budget: float = 60.0, expansion_limit: int = 2_000_000,
                 verify: bool = True) -> None:
        super().__init__(time_budget=time_budget, verify=verify)
        self.expansion_limit = expansion_limit

    def _route(self, circuit: QuantumCircuit, architecture: Architecture,
               deadline: float) -> RoutingResult:
        interactions = circuit.interaction_sequence()
        plan = self._search(interactions, circuit.num_qubits, architecture, deadline)
        if plan is None:
            return RoutingResult(status=RoutingStatus.TIMEOUT, router_name=self.name,
                                 circuit_name=circuit.name,
                                 notes="expansion limit reached")
        initial_mapping, swaps_before_gate, total_swaps = plan
        builder = RoutedBuilder(circuit, architecture, initial_mapping)
        two_qubit_index = 0
        for gate in circuit.gates:
            if gate.is_two_qubit:
                for edge in swaps_before_gate.get(two_qubit_index, []):
                    builder.emit_swap(*edge)
                two_qubit_index += 1
            builder.emit_gate(gate)
        result = builder.result(self.name, optimal=True, status=RoutingStatus.OPTIMAL)
        return result

    # ------------------------------------------------------------ the search

    def _search(self, interactions: list[tuple[int, int]], num_logical: int,
                architecture: Architecture, deadline: float):
        """Uniform-cost search; returns (initial map, swaps per gate, cost) or None."""
        if not interactions:
            mapping = complete_mapping({}, num_logical, architecture.num_qubits)
            return mapping, {}, 0

        counter = itertools.count()
        # State: (gate_index, placement) where placement is a sorted tuple of
        # (logical, physical) pairs for the qubits placed so far.
        start_state = (0, ())
        frontier = [(0, next(counter), start_state, [])]
        best_cost: dict[tuple, int] = {start_state: 0}
        expansions = 0

        while frontier:
            if expansions % 512 == 0:
                self.check_deadline(deadline)
            cost, _, state, history = heapq.heappop(frontier)
            if cost > best_cost.get(state, float("inf")):
                continue
            expansions += 1
            if expansions > self.expansion_limit:
                return None
            gate_index, placement = state
            if gate_index == len(interactions):
                return self._reconstruct(history, placement, num_logical,
                                         architecture, cost)
            placed = dict(placement)
            first, second = interactions[gate_index]

            # Lazily place any unplaced operand of the current gate.
            unplaced = [q for q in (first, second) if q not in placed]
            if unplaced:
                logical = unplaced[0]
                occupied = set(placed.values())
                for physical in range(architecture.num_qubits):
                    if physical in occupied:
                        continue
                    new_placed = dict(placed)
                    new_placed[logical] = physical
                    new_state = (gate_index, tuple(sorted(new_placed.items())))
                    if cost < best_cost.get(new_state, float("inf")):
                        best_cost[new_state] = cost
                        heapq.heappush(frontier, (cost, next(counter), new_state,
                                                  history + [("place", logical, physical)]))
                continue

            # Execute the gate if possible.
            if architecture.are_adjacent(placed[first], placed[second]):
                new_state = (gate_index + 1, placement)
                if cost < best_cost.get(new_state, float("inf")):
                    best_cost[new_state] = cost
                    heapq.heappush(frontier, (cost, next(counter), new_state,
                                              history + [("gate", gate_index)]))
                continue

            # Otherwise insert one SWAP on any edge touching a placed qubit.
            occupied_physical = set(placed.values())
            for edge in architecture.edges:
                if edge[0] not in occupied_physical and edge[1] not in occupied_physical:
                    continue
                new_placed = dict(placed)
                for logical, physical in placed.items():
                    if physical == edge[0]:
                        new_placed[logical] = edge[1]
                    elif physical == edge[1]:
                        new_placed[logical] = edge[0]
                new_state = (gate_index, tuple(sorted(new_placed.items())))
                new_cost = cost + 1
                if new_cost < best_cost.get(new_state, float("inf")):
                    best_cost[new_state] = new_cost
                    heapq.heappush(frontier, (new_cost, next(counter), new_state,
                                              history + [("swap", edge, gate_index)]))
        return None

    def _reconstruct(self, history, placement, num_logical: int,
                     architecture: Architecture, cost: int):
        """Replay the action history to recover the initial map and swap plan.

        A logical qubit may be placed *after* some SWAPs have already been
        emitted; its initial position is then the preimage of its placement
        position under the permutation those SWAPs induce, so that when the
        real circuit executes the same SWAPs the qubit arrives exactly where
        the search assumed it to be.
        """
        initial: dict[int, int] = {}
        swaps_before_gate: dict[int, list[tuple[int, int]]] = {}
        # inverse[p] = the physical qubit whose initial content is currently at p.
        inverse = {physical: physical for physical in range(architecture.num_qubits)}
        for action in history:
            if action[0] == "place":
                _, logical, physical = action
                initial[logical] = inverse[physical]
            elif action[0] == "swap":
                _, edge, gate_index = action
                swaps_before_gate.setdefault(gate_index, []).append(edge)
                inverse[edge[0]], inverse[edge[1]] = inverse[edge[1]], inverse[edge[0]]
        initial = complete_mapping(initial, num_logical, architecture.num_qubits)
        return initial, swaps_before_gate, cost
