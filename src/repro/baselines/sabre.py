"""SABRE: heuristic qubit mapping with lookahead and bidirectional passes.

Reimplementation of the algorithm from "Tackling the Qubit Mapping Problem for
NISQ-Era Quantum Devices" (Li, Ding, Xie, ASPLOS 2019), which is the routing
pass behind Qiskit's ``SabreSwap``/``SabreLayout`` and one of the paper's
heuristic baselines (Q2).

The router has two parts:

* **Routing** (:meth:`SabreRouter._route_once`): maintain the dependency
  front layer; execute every gate whose qubits are adjacent; otherwise score
  each candidate SWAP (any edge touching a qubit involved in the front layer)
  by the change in total distance of the front layer plus a discounted
  lookahead over the extended set of upcoming gates, apply the best one, and
  repeat.  A decay factor discourages repeatedly moving the same qubit.
* **Initial mapping** (bidirectional passes): route the circuit, reverse it,
  use the final mapping as the new initial mapping, and repeat; after an even
  number of reversals the mapping has adapted to both ends of the circuit.

The hot loop works directly on the flat data structures: the CSR successor
arrays of :class:`~repro.circuits.dag.CircuitDag` with a per-node
remaining-predecessor counter (no set-inclusion checks), the architecture's
flat distance matrix, and the builder's O(1) logical<->physical arrays.  A
candidate SWAP is scored without copying the mapping: only the two logical
qubits the swap touches are special-cased during the distance lookups.
"""

from __future__ import annotations

import random

from repro.api import BaseRouter
from repro.baselines.base import (
    RoutedBuilder,
    greedy_interaction_mapping,
)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import CircuitDag
from repro.core.result import RoutingResult, RoutingStatus
from repro.hardware.architecture import Architecture


class SabreRouter(BaseRouter):
    """SABRE heuristic router."""

    name = "SABRE"

    def __init__(
        self,
        time_budget: float = 60.0,
        lookahead_size: int = 20,
        lookahead_weight: float = 0.5,
        decay_factor: float = 0.001,
        decay_reset_interval: int = 5,
        bidirectional_passes: int = 3,
        seed: int = 0,
        verify: bool = True,
        initial_mapping: dict[int, int] | None = None,
    ) -> None:
        super().__init__(time_budget=time_budget, verify=verify)
        if lookahead_size < 0:
            raise ValueError("lookahead_size must be non-negative")
        self.lookahead_size = lookahead_size
        self.lookahead_weight = lookahead_weight
        self.decay_factor = decay_factor
        self.decay_reset_interval = decay_reset_interval
        self.bidirectional_passes = bidirectional_passes
        self.seed = seed
        #: When provided, this mapping is used as-is and the bidirectional
        #: initial-mapping search is skipped (the hybrid router relies on this
        #: to combine an externally-computed optimal placement with SABRE's
        #: routing pass).
        self.initial_mapping = dict(initial_mapping) if initial_mapping else None

    # ---------------------------------------------------------------- public

    def _route(self, circuit: QuantumCircuit, architecture: Architecture,
               deadline: float) -> RoutingResult:
        rng = random.Random(self.seed)
        if self.initial_mapping is not None:
            mapping = dict(self.initial_mapping)
        else:
            mapping = greedy_interaction_mapping(circuit, architecture)
            reversed_circuit = _reversed(circuit)

            # Bidirectional passes refine the initial mapping.
            for pass_index in range(self.bidirectional_passes):
                self.check_deadline(deadline)
                target = circuit if pass_index % 2 == 0 else reversed_circuit
                builder = self._route_once(target, architecture, mapping, rng, deadline)
                mapping = dict(builder.mapping)

            # If the pass count is odd the mapping currently suits the *end* of
            # the circuit; run one more reverse pass so it suits the beginning.
            if self.bidirectional_passes % 2 == 1:
                builder = self._route_once(reversed_circuit, architecture, mapping, rng,
                                           deadline)
                mapping = dict(builder.mapping)

        final_builder = self._route_once(circuit, architecture, mapping, rng, deadline)
        return final_builder.result(self.name, status=RoutingStatus.FEASIBLE)

    # -------------------------------------------------------------- internals

    def _route_once(self, circuit: QuantumCircuit, architecture: Architecture,
                    initial_mapping: dict[int, int], rng: random.Random,
                    deadline: float) -> RoutedBuilder:
        dag = CircuitDag(circuit)
        builder = RoutedBuilder(circuit, architecture, initial_mapping)
        ir = circuit.ir
        qa, qb, offset = ir.qa, ir.qb, ir.start
        distance = architecture.flat_distance_lookup()
        num_physical = architecture.num_qubits
        succ0, succ1 = dag.succ0, dag.succ1
        remaining = dag.indegrees()
        done = bytearray(len(dag))
        phys_of, log_at = builder.phys_of, builder.log_at

        decay = [1.0] * num_physical
        swaps_since_progress = 0
        front: set[int] = set(dag.initial_front())
        # Round-state cache: the blocked front pairs, the lookahead set, and
        # the per-pair base distances only change when a gate executes (the
        # front moves) -- not per applied SWAP.  Between swaps the cache is
        # patched incrementally instead of rebuilt.
        round_state = None
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
                swaps_since_progress = 0
                decay = [1.0] * num_physical
                round_state = None
                continue

            if round_state is None:
                front_pairs = [(qa[offset + index], qb[offset + index])
                               for index in sorted(front) if qb[offset + index] >= 0]
                if not front_pairs:
                    # Only single-qubit gates remain blocked, which cannot
                    # happen (they are always executable); guard anyway.
                    for index in sorted(front):
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
                    continue
                for logical_a, logical_b in front_pairs:
                    builder.require_reachable(logical_a, logical_b)
                extended = self._extended_set(dag, front, done, qa, qb, offset)
                all_pairs = front_pairs + extended
                num_front = len(front_pairs)
                num_extended = len(extended)
                base_cost = [distance[phys_of[a] * num_physical + phys_of[b]]
                             for a, b in all_pairs]
                base_front = sum(base_cost[:num_front])
                base_extended = sum(base_cost[num_front:])
                touching: dict[int, list[int]] = {}
                for pair_index, (first, second) in enumerate(all_pairs):
                    touching.setdefault(first, []).append(pair_index)
                    touching.setdefault(second, []).append(pair_index)
                round_state = (front_pairs, all_pairs, num_front, num_extended,
                               touching)
            else:
                front_pairs, all_pairs, num_front, num_extended, touching = \
                    round_state

            # Anti-livelock safeguard: if scoring has not unblocked anything for
            # a long stretch, walk the first blocked gate's qubits together
            # along a shortest path instead of trusting the heuristic.
            if swaps_since_progress > 4 * num_physical:
                logical_a, logical_b = front_pairs[0]
                path = architecture.shortest_path(phys_of[logical_a],
                                                  phys_of[logical_b])
                builder.emit_swap(path[0], path[1])
                swaps_since_progress = 0
                round_state = None
                continue

            candidates = self._candidate_swaps(front_pairs, builder)
            lookahead_weight = self.lookahead_weight

            # Score candidates by exact integer deltas: each pair's distance
            # under the current map is cached, and per candidate only the
            # pairs touching the two swapped logical qubits are re-scored.
            # Sums stay integral, so the resulting floats are bit-identical
            # to a full recompute (and to the legacy implementation).
            best_swap = None
            best_score = None
            empty: tuple[int, ...] = ()
            for swap in sorted(candidates):
                swap_a, swap_b = swap
                logical_a = log_at[swap_a]
                logical_b = log_at[swap_b]
                front_delta = 0
                extended_delta = 0
                touched_a = touching.get(logical_a, empty)
                for pair_index in touched_a:
                    first, second = all_pairs[pair_index]
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
                    delta = (distance[pa * num_physical + pb]
                             - base_cost[pair_index])
                    if pair_index < num_front:
                        front_delta += delta
                    else:
                        extended_delta += delta
                for pair_index in touching.get(logical_b, empty):
                    first, second = all_pairs[pair_index]
                    if first == logical_a or second == logical_a:
                        continue  # already handled through logical_a's list
                    if first == logical_b:
                        pa = swap_a
                        pb = phys_of[second]
                    else:
                        pa = phys_of[first]
                        pb = swap_a
                    delta = (distance[pa * num_physical + pb]
                             - base_cost[pair_index])
                    if pair_index < num_front:
                        front_delta += delta
                    else:
                        extended_delta += delta
                score = (base_front + front_delta) / num_front
                if num_extended:
                    score += lookahead_weight * (
                        (base_extended + extended_delta) / num_extended)
                decay_a, decay_b = decay[swap_a], decay[swap_b]
                score *= decay_a if decay_a >= decay_b else decay_b
                if best_score is None or score < best_score - 1e-12 or (
                        abs(score - best_score) <= 1e-12 and rng.random() < 0.5):
                    best_score = score
                    best_swap = swap
            assert best_swap is not None
            # Patch the cached base costs for the pairs the applied swap
            # moves, before the next round reuses them.
            moved = set(touching.get(log_at[best_swap[0]], ()))
            moved.update(touching.get(log_at[best_swap[1]], ()))
            builder.emit_swap(*best_swap)
            for pair_index in moved:
                first, second = all_pairs[pair_index]
                new_cost = distance[phys_of[first] * num_physical
                                    + phys_of[second]]
                shift = new_cost - base_cost[pair_index]
                base_cost[pair_index] = new_cost
                if pair_index < num_front:
                    base_front += shift
                else:
                    base_extended += shift
            decay[best_swap[0]] += self.decay_factor
            decay[best_swap[1]] += self.decay_factor
            swaps_since_progress += 1
            if swaps_since_progress % self.decay_reset_interval == 0:
                decay = [1.0] * num_physical
        return builder

    def _extended_set(self, dag: CircuitDag, front: set[int], done: bytearray,
                      qa, qb, offset: int) -> list[tuple[int, int]]:
        """Upcoming two-qubit gates (as logical pairs) used for lookahead."""
        extended: list[tuple[int, int]] = []
        queue = sorted(front)
        seen = set(queue)
        succ0, succ1 = dag.succ0, dag.succ1
        position = 0
        lookahead_size = self.lookahead_size
        while position < len(queue) and len(extended) < lookahead_size:
            node = queue[position]
            position += 1
            for successor in (succ0[node], succ1[node]):
                if successor < 0 or successor in seen or done[successor]:
                    continue
                seen.add(successor)
                queue.append(successor)
                b = qb[offset + successor]
                if b >= 0:
                    extended.append((qa[offset + successor], b))
        return extended

    def _candidate_swaps(self, front_pairs, builder: RoutedBuilder) -> set[tuple[int, int]]:
        """Edges touching any physical qubit involved in the front layer."""
        phys_of = builder.phys_of
        involved_physical = set()
        for logical_a, logical_b in front_pairs:
            involved_physical.add(phys_of[logical_a])
            involved_physical.add(phys_of[logical_b])
        candidates = set()
        architecture = builder.architecture
        for physical in involved_physical:
            for neighbor in architecture.neighbors_sorted(physical):
                candidates.add((physical, neighbor) if physical < neighbor
                               else (neighbor, physical))
        return candidates


def _reversed(circuit: QuantumCircuit) -> QuantumCircuit:
    """The circuit with its gate order reversed (used by bidirectional passes)."""
    reversed_circuit = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}(rev)")
    ir = circuit.ir
    for index in range(len(ir) - 1, -1, -1):
        reversed_circuit.append_op(*ir.gate(index))
    return reversed_circuit
