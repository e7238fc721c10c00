"""A tket-style router: graph placement plus windowed greedy swap selection.

The tket compiler (Cowtan et al., "On the qubit routing problem", 2019) pairs
a graph-placement initial map with a routing pass that, at each timestep,
greedily chooses the swap that most improves a distance-based score over the
current slice of blocked gates and a lookahead window of upcoming gates.  This
module reimplements that strategy at the level of detail the paper's
comparison needs: the scoring window, the greedy argmin choice, and the
absence of SABRE's decay/bidirectional machinery are what differentiate its
behaviour (and its failure mode on highly-connected graphs, Q4).

Like SABRE, the routing loop runs on the flat structures: CSR successor
arrays with remaining-predecessor counters for the front layer, the flat
distance matrix for scoring, and two-entry special-casing instead of a
mapping copy per candidate swap.
"""

from __future__ import annotations

from repro.api import BaseRouter
from repro.baselines.base import RoutedBuilder, greedy_interaction_mapping
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import CircuitDag
from repro.core.result import RoutingResult, RoutingStatus
from repro.hardware.architecture import Architecture


class TketLikeRouter(BaseRouter):
    """Greedy, window-scored router in the style of tket's default pass."""

    name = "TKET-like"

    def __init__(self, time_budget: float = 60.0, window_size: int = 15,
                 window_discount: float = 0.7, verify: bool = True) -> None:
        super().__init__(time_budget=time_budget, verify=verify)
        if not 0.0 < window_discount <= 1.0:
            raise ValueError("window_discount must be in (0, 1]")
        self.window_size = window_size
        self.window_discount = window_discount

    def _route(self, circuit: QuantumCircuit, architecture: Architecture,
               deadline: float) -> RoutingResult:
        mapping = greedy_interaction_mapping(circuit, architecture)
        dag = CircuitDag(circuit)
        builder = RoutedBuilder(circuit, architecture, mapping)
        ir = circuit.ir
        qa, qb, offset = ir.qa, ir.qb, ir.start
        distance = architecture.flat_distance_lookup()
        num_physical = architecture.num_qubits
        succ0, succ1 = dag.succ0, dag.succ1
        remaining = dag.indegrees()
        done = bytearray(len(dag))
        phys_of, log_at = builder.phys_of, builder.log_at
        front: set[int] = set(dag.initial_front())
        stuck_rounds = 0

        while front:
            self.check_deadline(deadline)
            progressed = False
            for index in sorted(front):
                a = qa[offset + index]
                b = qb[offset + index]
                if b < 0 or distance[phys_of[a] * num_physical + phys_of[b]] == 1:
                    builder.emit_index(ir, index)
                    done[index] = 1
                    front.discard(index)
                    successor = succ0[index]
                    if successor >= 0:
                        remaining[successor] -= 1
                        if remaining[successor] == 0:
                            front.add(successor)
                        successor = succ1[index]
                        if successor >= 0:
                            remaining[successor] -= 1
                            if remaining[successor] == 0:
                                front.add(successor)
                    progressed = True
            if progressed:
                stuck_rounds = 0
                continue

            blocked = [(qa[offset + index], qb[offset + index])
                       for index in sorted(front) if qb[offset + index] >= 0]
            for logical_a, logical_b in blocked:
                builder.require_reachable(logical_a, logical_b)
            window = self._window(dag, front, done, qa, qb, offset)

            stuck_rounds += 1
            if stuck_rounds > 4 * num_physical:
                logical_a, logical_b = blocked[0]
                path = architecture.shortest_path(phys_of[logical_a],
                                                  phys_of[logical_b])
                builder.emit_swap(path[0], path[1])
                stuck_rounds = 0
                continue

            best_swap = None
            best_score = None
            window_discount = self.window_discount
            for edge in self._candidate_edges(blocked, builder):
                swap_a, swap_b = edge
                logical_a = log_at[swap_a]
                logical_b = log_at[swap_b]
                score = 0
                for first, second in blocked:
                    if first == logical_a:
                        pa = swap_b
                    elif first == logical_b:
                        pa = swap_a
                    else:
                        pa = phys_of[first]
                    if second == logical_a:
                        pb = swap_b
                    elif second == logical_b:
                        pb = swap_a
                    else:
                        pb = phys_of[second]
                    score += distance[pa * num_physical + pb]
                score = float(score)
                discount = window_discount
                for first, second in window:
                    if first == logical_a:
                        pa = swap_b
                    elif first == logical_b:
                        pa = swap_a
                    else:
                        pa = phys_of[first]
                    if second == logical_a:
                        pb = swap_b
                    elif second == logical_b:
                        pb = swap_a
                    else:
                        pb = phys_of[second]
                    score += discount * distance[pa * num_physical + pb]
                    discount *= window_discount
                if best_score is None or score < best_score:
                    best_score = score
                    best_swap = edge
            assert best_swap is not None
            builder.emit_swap(*best_swap)

        return builder.result(self.name, status=RoutingStatus.FEASIBLE)

    def _window(self, dag: CircuitDag, front: set[int], done: bytearray,
                qa, qb, offset: int) -> list[tuple[int, int]]:
        """The next ``window_size`` two-qubit gates in topological order."""
        window: list[tuple[int, int]] = []
        queue = sorted(front)
        seen = set(queue)
        succ0, succ1 = dag.succ0, dag.succ1
        position = 0
        window_size = self.window_size
        while position < len(queue) and len(window) < window_size:
            node = queue[position]
            position += 1
            for successor in (succ0[node], succ1[node]):
                if successor < 0 or successor in seen or done[successor]:
                    continue
                seen.add(successor)
                queue.append(successor)
                b = qb[offset + successor]
                if b >= 0:
                    window.append((qa[offset + successor], b))
        return window

    def _candidate_edges(self, blocked, builder: RoutedBuilder) -> list[tuple[int, int]]:
        phys_of = builder.phys_of
        involved = set()
        for logical_a, logical_b in blocked:
            involved.add(phys_of[logical_a])
            involved.add(phys_of[logical_b])
        candidates = set()
        architecture = builder.architecture
        for physical in involved:
            for neighbor in architecture.neighbors_sorted(physical):
                candidates.add((physical, neighbor) if physical < neighbor
                               else (neighbor, physical))
        return sorted(candidates)
