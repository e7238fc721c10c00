"""Approximate token swapping on a connectivity graph.

Token swapping asks for a shortest sequence of SWAPs (each along an edge)
that transforms one placement of labelled tokens into another.  It is the
routing sub-problem of the BMT/Enfield family of mappers the paper cites
(Siraichi et al., "Qubit allocation as a combination of subgraph isomorphism
and token swapping"), and it is also how a router can move between two
arbitrary complete mappings -- for example between the final map of one
circuit region and the initial map of the next.  The BMT-style baseline
routes with it, and the cyclic relaxation (:mod:`repro.core.cyclic`) uses it
to return a routed block's final map to its initial map.

:func:`approximate_token_swapping` runs in two phases.  The *greedy* phase
repeatedly applies the edge swap with the largest strictly positive decrease
in total token-to-destination distance; it terminates because the total
distance is a strictly decreasing non-negative integer.  If tokens remain
misplaced when no improving swap exists (a deadlock), the *completion* phase
finishes deterministically on a BFS spanning tree: leaves of the remaining
subtree are satisfied one at a time by walking their destined token to them
along the unique tree path, then removed.  The combination is not optimal --
token swapping is NP-hard -- but it always terminates with a correct swap
sequence and reaches the greedy quality of the routers that use it.
"""

from __future__ import annotations

from collections import deque

from repro.hardware.architecture import Architecture


def approximate_token_swapping(architecture: Architecture,
                               current: dict[int, int],
                               target: dict[int, int]) -> list[tuple[int, int]]:
    """Swaps (as physical-qubit pairs) turning ``current`` into ``target``.

    ``current`` and ``target`` map logical qubits (tokens) to physical qubits;
    they must place the same logical qubits.  Physical qubits not holding any
    token are treated as empty and may be moved through freely.
    """
    if set(current) != set(target):
        raise ValueError("current and target mappings must place the same logical qubits")
    _check_injective(current, architecture)
    _check_injective(target, architecture)

    distance = architecture.flat_distance_matrix()
    num_physical = architecture.num_qubits
    position = dict(current)                      # logical -> physical
    occupant = {p: q for q, p in position.items()}  # physical -> logical
    destination = dict(target)
    swaps: list[tuple[int, int]] = []

    def token_distance(logical: int) -> int:
        return distance[position[logical] * num_physical + destination[logical]]

    def total_distance() -> int:
        return sum(token_distance(logical) for logical in position)

    def apply_swap(first: int, second: int) -> None:
        logical_first = occupant.get(first)
        logical_second = occupant.get(second)
        if logical_first is not None:
            position[logical_first] = second
        if logical_second is not None:
            position[logical_second] = first
        occupant.pop(first, None)
        occupant.pop(second, None)
        if logical_first is not None:
            occupant[second] = logical_first
        if logical_second is not None:
            occupant[first] = logical_second
        swaps.append((first, second))

    # Greedy phase: the total distance strictly decreases at every step, so
    # this loop terminates.
    while total_distance() > 0:
        best_swap = None
        best_gain = 0
        for first, second in architecture.edges:
            gain = _swap_gain(first, second, occupant, destination, distance,
                              num_physical)
            if gain > best_gain:
                best_gain = gain
                best_swap = (first, second)
        if best_swap is None:
            break
        apply_swap(*best_swap)

    if total_distance() > 0:
        _complete_on_spanning_tree(architecture, position, occupant, destination,
                                   apply_swap)
    return swaps


def _complete_on_spanning_tree(architecture: Architecture,
                               position: dict[int, int],
                               occupant: dict[int, int],
                               destination: dict[int, int],
                               apply_swap) -> None:
    """Deterministic fallback: satisfy leaves of a BFS spanning tree one by one.

    The partial placement is first extended to a full permutation by giving
    every empty vertex a *dummy* token and assigning the dummies to the
    destinations no real token wants (nearest first).  Every vertex then has
    exactly one destined token, so each leaf of the remaining subtree can be
    satisfied by walking its token to it along the unique tree path and sealed
    off; walks never re-enter sealed vertices, so each iteration makes
    permanent progress and the procedure terminates.
    """
    tree = _bfs_spanning_tree(architecture)
    distance = architecture.flat_distance_matrix()
    num_physical = architecture.num_qubits
    remaining: set[int] = set(range(architecture.num_qubits))

    # Extend to a full permutation with dummy tokens (negative ids).  The
    # shared position/occupant dictionaries are extended in place so the
    # caller's ``apply_swap`` keeps tracking the dummies too; the destination
    # map is copied because the caller must not see dummy destinations.
    destination = dict(destination)
    free_destinations = [vertex for vertex in range(architecture.num_qubits)
                         if vertex not in set(destination.values())]
    next_dummy = -1
    for vertex in range(architecture.num_qubits):
        if vertex not in occupant:
            position[next_dummy] = vertex
            occupant[vertex] = next_dummy
            next_dummy -= 1
    for dummy in sorted((token for token in position if token < 0), reverse=True):
        home = position[dummy]
        free_destinations.sort(key=lambda vertex: distance[home * num_physical + vertex])
        destination[dummy] = free_destinations.pop(0)
    wants = {physical: logical for logical, physical in destination.items()}

    def remaining_degree(vertex: int) -> int:
        return sum(1 for neighbor in tree[vertex] if neighbor in remaining)

    def tree_path(source: int, target_vertex: int) -> list[int]:
        parent = {source: source}
        queue = deque([source])
        while queue:
            vertex = queue.popleft()
            if vertex == target_vertex:
                break
            for neighbor in tree[vertex]:
                if neighbor in remaining and neighbor not in parent:
                    parent[neighbor] = vertex
                    queue.append(neighbor)
        path = [target_vertex]
        while path[-1] != source:
            path.append(parent[path[-1]])
        return list(reversed(path))

    while len(remaining) > 1:
        leaf = next(vertex for vertex in sorted(remaining) if remaining_degree(vertex) <= 1)
        destined = wants[leaf]
        if position[destined] != leaf:
            path = tree_path(position[destined], leaf)
            for step in range(len(path) - 1):
                apply_swap(path[step], path[step + 1])
        remaining.discard(leaf)

    # Drop the dummy bookkeeping so the caller's view agrees with its own tokens.
    for token in [token for token in position if token < 0]:
        occupant.pop(position[token], None)
        del position[token]


def _bfs_spanning_tree(architecture: Architecture) -> dict[int, set[int]]:
    """Adjacency of a BFS spanning tree rooted at physical qubit 0."""
    tree: dict[int, set[int]] = {vertex: set() for vertex in range(architecture.num_qubits)}
    visited = {0}
    queue = deque([0])
    while queue:
        vertex = queue.popleft()
        for neighbor in architecture.neighbors_sorted(vertex):
            if neighbor not in visited:
                visited.add(neighbor)
                tree[vertex].add(neighbor)
                tree[neighbor].add(vertex)
                queue.append(neighbor)
    if len(visited) != architecture.num_qubits:
        raise RuntimeError("token swapping requires a connected architecture")
    return tree


def _swap_gain(first: int, second: int, occupant: dict[int, int],
               destination: dict[int, int], distance,
               num_physical: int) -> int:
    """Total decrease in token-to-destination distance if (first, second) swap."""
    gain = 0
    logical_first = occupant.get(first)
    logical_second = occupant.get(second)
    if logical_first is None and logical_second is None:
        return 0
    if logical_first is not None:
        home = destination[logical_first]
        gain += (distance[first * num_physical + home]
                 - distance[second * num_physical + home])
    if logical_second is not None:
        home = destination[logical_second]
        gain += (distance[second * num_physical + home]
                 - distance[first * num_physical + home])
    return gain


def swap_distance_lower_bound(architecture: Architecture,
                              current: dict[int, int],
                              target: dict[int, int]) -> int:
    """A simple lower bound on the number of swaps needed: ceil(sum dist / 2).

    Each swap reduces the total token-to-destination distance by at most two,
    so half the total distance (rounded up) is a valid lower bound.  Useful
    for sanity-checking the approximation and for A*-style heuristics.
    """
    if set(current) != set(target):
        raise ValueError("current and target mappings must place the same logical qubits")
    distance = architecture.flat_distance_matrix()
    num_physical = architecture.num_qubits
    total = sum(distance[current[logical] * num_physical + target[logical]]
                for logical in current)
    return (total + 1) // 2


def apply_swaps(mapping: dict[int, int], swaps: list[tuple[int, int]]) -> dict[int, int]:
    """Return the mapping obtained by applying ``swaps`` (physical pairs) in order."""
    occupant = {p: q for q, p in mapping.items()}
    for first, second in swaps:
        logical_first = occupant.pop(first, None)
        logical_second = occupant.pop(second, None)
        if logical_first is not None:
            occupant[second] = logical_first
        if logical_second is not None:
            occupant[first] = logical_second
    return {logical: physical for physical, logical in occupant.items()}


def _check_injective(mapping: dict[int, int], architecture: Architecture) -> None:
    values = list(mapping.values())
    if len(values) != len(set(values)):
        raise ValueError("mapping is not injective")
    for physical in values:
        if not 0 <= physical < architecture.num_qubits:
            raise ValueError(f"physical qubit {physical} outside the architecture")
