"""A BMT/Enfield-style router: subgraph isomorphism plus token swapping.

The paper's related-work section cites Siraichi et al.'s Enfield approach,
"qubit allocation as a combination of subgraph isomorphism and token
swapping".  The idea:

1. split the circuit into maximal *regions* whose interaction graph embeds
   into the connectivity graph (so the region runs with zero SWAPs);
2. find such an embedding for each region (a bounded backtracking search, the
   subgraph-isomorphism half); and
3. between consecutive regions, move every logical qubit from its old
   physical home to its new one with an approximate token-swapping sequence.

This router rounds out the heuristic baseline set with a fundamentally
different strategy from SABRE/TKET (which pick SWAPs gate-by-gate): it
commits to per-region placements and pays the full permutation cost at region
boundaries.  On circuits with phase structure (e.g. QAOA) it can do well; on
unstructured circuits it usually trails the lookahead heuristics, which is
exactly the behaviour the comparison benchmarks surface.
"""

from __future__ import annotations

from repro.api import BaseRouter
from repro.baselines.base import RoutedBuilder
from repro.hardware.token_swapping import approximate_token_swapping
from repro.circuits.circuit import QuantumCircuit
from repro.core.result import RoutingResult
from repro.hardware.architecture import Architecture


class BmtLikeRouter(BaseRouter):
    """Region-wise subgraph-isomorphism placement glued by token swapping."""

    name = "bmt-like"

    def __init__(self, time_budget: float = 60.0, verify: bool = True,
                 max_embedding_attempts: int = 20_000) -> None:
        super().__init__(time_budget=time_budget, verify=verify)
        self.max_embedding_attempts = max_embedding_attempts

    # -------------------------------------------------------------- routing

    def _route(self, circuit: QuantumCircuit, architecture: Architecture,
               deadline: float) -> RoutingResult:
        regions = self._split_into_regions(circuit, architecture, deadline)
        mappings = self._place_regions(circuit, regions, architecture, deadline)

        builder = RoutedBuilder(circuit, architecture, mappings[0])
        ir = circuit.ir
        for region_index, (start, end) in enumerate(regions):
            self.check_deadline(deadline)
            if region_index > 0:
                self._transition(builder, architecture,
                                 mappings[region_index - 1], mappings[region_index])
            for index in range(start, end):
                builder.emit_op(*ir.gate(index))
        return builder.result(self.name)

    # ----------------------------------------------------------- region split

    def _two_qubit_items(self, circuit: QuantumCircuit) -> list[tuple[int, int, int]]:
        """``(gate index, low qubit, high qubit)`` per two-qubit gate, in order."""
        ir = circuit.ir
        qa, qb, offset = ir.qa, ir.qb, ir.start
        items = []
        for index in ir.two_qubit_indices():
            a = qa[offset + index]
            b = qb[offset + index]
            items.append((index, a, b) if a < b else (index, b, a))
        return items

    def _split_into_regions(self, circuit: QuantumCircuit, architecture: Architecture,
                            deadline: float) -> list[tuple[int, int]]:
        """Greedy maximal split: extend the current region while it still embeds."""
        regions: list[tuple[int, int]] = []
        start = 0
        current_pairs: set[tuple[int, int]] = set()
        for index, low, high in self._two_qubit_items(circuit):
            self.check_deadline(deadline)
            pair = (low, high)
            candidate = current_pairs | {pair}
            if (pair not in current_pairs
                    and self._find_embedding(candidate, circuit.num_qubits,
                                             architecture) is None):
                regions.append((start, index))
                start = index
                current_pairs = {pair}
            else:
                current_pairs = candidate
        regions.append((start, len(circuit)))
        return [region for region in regions if region[0] < region[1]] or [(0, len(circuit))]

    def _region_pairs(self, circuit: QuantumCircuit,
                      region: tuple[int, int]) -> set[tuple[int, int]]:
        return {(low, high) for index, low, high in self._two_qubit_items(circuit)
                if region[0] <= index < region[1]}

    # ------------------------------------------------------------- placement

    def _place_regions(self, circuit: QuantumCircuit, regions: list[tuple[int, int]],
                       architecture: Architecture,
                       deadline: float) -> list[dict[int, int]]:
        """Choose one complete logical->physical mapping per region."""
        mappings: list[dict[int, int]] = []
        previous: dict[int, int] | None = None
        for region in regions:
            self.check_deadline(deadline)
            pairs = self._region_pairs(circuit, region)
            embedding = self._find_embedding(pairs, circuit.num_qubits, architecture,
                                             prefer=previous)
            if embedding is None:
                # The region was built to embed; a miss can only happen for a
                # single non-embeddable pair, which cannot occur on a connected
                # graph.  Fall back to the previous mapping to stay safe.
                embedding = dict(previous) if previous else {}
            complete = self._complete_mapping(embedding, circuit.num_qubits,
                                              architecture, prefer=previous)
            mappings.append(complete)
            previous = complete
        return mappings

    def _find_embedding(self, pairs: set[tuple[int, int]], num_qubits: int,
                        architecture: Architecture,
                        prefer: dict[int, int] | None = None) -> dict[int, int] | None:
        """Backtracking search for a mapping sending every pair onto an edge.

        Only logical qubits that appear in ``pairs`` are placed.  ``prefer``
        biases the search order towards a previous mapping so consecutive
        regions stay close (cheaper transitions).
        """
        involved = sorted({q for pair in pairs for q in pair})
        if not involved:
            return {}
        adjacency = {q: set() for q in involved}
        for first, second in pairs:
            adjacency[first].add(second)
            adjacency[second].add(first)
        # Place high-degree logical qubits first (fail fast).
        order = sorted(involved, key=lambda q: -len(adjacency[q]))
        attempts = 0

        def candidates(logical: int, partial: dict[int, int]) -> list[int]:
            used = set(partial.values())
            options = [p for p in range(architecture.num_qubits) if p not in used]
            preferred = prefer.get(logical) if prefer else None
            options.sort(key=lambda p: (0 if p == preferred else 1,
                                        -architecture.degree(p)))
            return options

        def consistent(logical: int, physical: int, partial: dict[int, int]) -> bool:
            for neighbor in adjacency[logical]:
                if neighbor in partial and not architecture.are_adjacent(
                        physical, partial[neighbor]):
                    return False
            return True

        def backtrack(position: int, partial: dict[int, int]) -> dict[int, int] | None:
            nonlocal attempts
            if position == len(order):
                return dict(partial)
            logical = order[position]
            for physical in candidates(logical, partial):
                attempts += 1
                if attempts > self.max_embedding_attempts:
                    return None
                if not consistent(logical, physical, partial):
                    continue
                partial[logical] = physical
                found = backtrack(position + 1, partial)
                if found is not None:
                    return found
                del partial[logical]
            return None

        return backtrack(0, {})

    def _complete_mapping(self, partial: dict[int, int], num_qubits: int,
                          architecture: Architecture,
                          prefer: dict[int, int] | None = None) -> dict[int, int]:
        """Extend a partial embedding to place every logical qubit."""
        mapping = dict(partial)
        used = set(mapping.values())
        for logical in range(num_qubits):
            if logical in mapping:
                continue
            preferred = prefer.get(logical) if prefer else None
            if preferred is not None and preferred not in used:
                choice = preferred
            else:
                choice = next(p for p in range(architecture.num_qubits) if p not in used)
            mapping[logical] = choice
            used.add(choice)
        return mapping

    # ------------------------------------------------------------ transition

    def _transition(self, builder: RoutedBuilder, architecture: Architecture,
                    source: dict[int, int], target: dict[int, int]) -> None:
        """Emit token-swapping SWAPs moving ``source`` into ``target``."""
        current = {logical: builder.physical_of(logical) for logical in source}
        swaps = approximate_token_swapping(architecture, current, target)
        for first, second in swaps:
            builder.emit_swap(first, second)


def interaction_pairs(circuit: QuantumCircuit) -> set[tuple[int, int]]:
    """All distinct (unordered) logical pairs touched by two-qubit gates."""
    return {(first, second) if first < second else (second, first)
            for first, second in circuit.interaction_sequence()}


def embeds_without_swaps(circuit: QuantumCircuit, architecture: Architecture,
                         max_attempts: int = 20_000) -> bool:
    """Whether the circuit's full interaction graph embeds into the device.

    When it does, a zero-SWAP routing exists (the ~14% of paper benchmarks for
    which SATMAP adds no gates are exactly these).
    """
    router = BmtLikeRouter(max_embedding_attempts=max_attempts)
    pairs = interaction_pairs(circuit)
    return router._find_embedding(pairs, circuit.num_qubits, architecture) is not None
