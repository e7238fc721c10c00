"""MQT-style A* layer router.

The MQT mapping heuristic (Zulehner, Paler, Wille, TCAD 2019 -- "MQTH" in the
paper) partitions the circuit into topological layers of two-qubit gates and,
between consecutive layers, runs an A* search over mappings to find a minimal
SWAP sequence that makes every gate of the next layer executable.  The search
is exact per layer transition but greedy across layers, which is why the paper
classifies it as a heuristic tool.

States are (mapping, swaps-so-far); the admissible heuristic is the sum over
layer gates of ``ceil((distance - 1) / largest_single_swap_gain)``, which never
overestimates because one SWAP reduces any single gate's distance by at most
one.  A node-expansion cap keeps worst cases bounded; when it trips, the
router falls back to walking the most-distant gate's qubits together, which
preserves correctness (the result is still verified) at the price of
optimality for that layer.

Layers come from :meth:`~repro.circuits.dag.CircuitDag.layer_indices` (node
indices, no DagNode materialisation) and all distance lookups inside the
search read the architecture's flat distance matrix.
"""

from __future__ import annotations

import heapq
import itertools
import math

from repro.api import BaseRouter
from repro.baselines.base import RoutedBuilder, greedy_interaction_mapping
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import CircuitDag
from repro.core.result import RoutingResult, RoutingStatus
from repro.hardware.architecture import Architecture


class AStarLayerRouter(BaseRouter):
    """Layer-by-layer A* mapper in the style of the MQT heuristic."""

    name = "MQT-A*"

    def __init__(self, time_budget: float = 60.0, expansion_limit: int = 20000,
                 verify: bool = True) -> None:
        super().__init__(time_budget=time_budget, verify=verify)
        if expansion_limit <= 0:
            raise ValueError("expansion_limit must be positive")
        self.expansion_limit = expansion_limit

    def _route(self, circuit: QuantumCircuit, architecture: Architecture,
               deadline: float) -> RoutingResult:
        mapping = greedy_interaction_mapping(circuit, architecture)
        builder = RoutedBuilder(circuit, architecture, mapping)
        dag = CircuitDag(circuit)
        ir = circuit.ir
        qa, qb, offset = ir.qa, ir.qb, ir.start

        for layer in dag.layer_indices():
            self.check_deadline(deadline)
            pairs = [(qa[offset + index], qb[offset + index])
                     for index in layer if qb[offset + index] >= 0]
            if pairs:
                for logical_a, logical_b in pairs:
                    builder.require_reachable(logical_a, logical_b)
                swap_sequence = self._search_layer(pairs, builder,
                                                   architecture, deadline)
                for edge in swap_sequence:
                    builder.emit_swap(*edge)
            for index in layer:
                builder.emit_index(ir, index)
        return builder.result(self.name, status=RoutingStatus.FEASIBLE)

    # ------------------------------------------------------------ A* search

    def _search_layer(self, pairs: list[tuple[int, int]], builder: RoutedBuilder,
                      architecture: Architecture, deadline: float
                      ) -> list[tuple[int, int]]:
        """Minimal SWAP sequence making all ``pairs`` executable at once."""
        distance = architecture.flat_distance_lookup()
        num_physical = architecture.num_qubits
        logical_qubits = sorted({q for pair in pairs for q in pair})
        slot_of = {logical: slot for slot, logical in enumerate(logical_qubits)}
        pair_slots = [(slot_of[first], slot_of[second]) for first, second in pairs]

        def heuristic(placement: tuple[int, ...]) -> int:
            total = 0
            for first, second in pair_slots:
                gap = distance[placement[first] * num_physical + placement[second]] - 1
                if gap > 0:
                    total += gap
            return (total + 1) // 2 if total else 0

        def is_goal(placement: tuple[int, ...]) -> bool:
            for first, second in pair_slots:
                if distance[placement[first] * num_physical + placement[second]] != 1:
                    return False
            return True

        phys_of = builder.phys_of
        start_placement = tuple(phys_of[q] for q in logical_qubits)
        if is_goal(start_placement):
            return []

        counter = itertools.count()
        frontier: list[tuple[int, int, int, tuple[int, ...], list[tuple[int, int]]]] = []
        heapq.heappush(frontier, (heuristic(start_placement), next(counter), 0,
                                  start_placement, []))
        best_cost: dict[tuple[int, ...], int] = {start_placement: 0}
        expansions = 0

        while frontier:
            if expansions % 256 == 0:
                self.check_deadline(deadline)
            estimate, _, cost, placement, path = heapq.heappop(frontier)
            if is_goal(placement):
                return path
            if cost > best_cost.get(placement, math.inf):
                continue
            expansions += 1
            if expansions > self.expansion_limit:
                return self._greedy_fallback(pairs, builder, architecture)
            relevant_physical = set(placement)
            for edge in architecture.edges:
                if edge[0] not in relevant_physical and edge[1] not in relevant_physical:
                    continue
                new_placement = _apply_swap(placement, edge)
                new_cost = cost + 1
                if new_cost >= best_cost.get(new_placement, math.inf):
                    continue
                best_cost[new_placement] = new_cost
                heapq.heappush(frontier, (new_cost + heuristic(new_placement),
                                          next(counter), new_cost, new_placement,
                                          path + [edge]))
        return self._greedy_fallback(pairs, builder, architecture)

    def _greedy_fallback(self, pairs: list[tuple[int, int]], builder: RoutedBuilder,
                         architecture: Architecture) -> list[tuple[int, int]]:
        """Walk each gate's qubits adjacent along shortest paths (non-optimal)."""
        position = dict(builder.mapping)
        swaps: list[tuple[int, int]] = []
        for first, second in pairs:
            while not architecture.are_adjacent(position[first], position[second]):
                path = architecture.shortest_path(position[first], position[second])
                edge = (path[0], path[1])
                occupant = None
                for logical, physical in position.items():
                    if physical == edge[1]:
                        occupant = logical
                        break
                position[first] = edge[1]
                if occupant is not None:
                    position[occupant] = edge[0]
                swaps.append(edge)
        return swaps


def _apply_swap(placement: tuple[int, ...], edge: tuple[int, int]) -> tuple[int, ...]:
    """Placement after swapping the physical qubits of ``edge``."""
    first, second = edge
    return tuple(second if p == first else first if p == second else p
                 for p in placement)
