"""The hybrid mapper: MaxSAT placement plus heuristic routing (Section IX).

The paper's discussion section sketches one way to keep constraint-based
tools ahead of growing qubit counts: "we can only solve the mapping
constraints (optimally) and leave the routing process for a heuristic
approach".  :class:`HybridSatMapRouter` is that design point, built from the
pieces already in the repository:

1. **Placement** -- a small weighted MaxSAT instance over a *single* map step
   chooses the initial logical-to-physical mapping.  Hard constraints are the
   paper's Hard A (injectivity/totality); each interacting logical pair
   contributes a soft constraint, weighted by how often the pair interacts,
   that is satisfied exactly when the pair lands on an edge.  The optimum is
   therefore the placement that makes as much of the circuit as possible
   directly executable.
2. **Routing** -- SABRE's routing pass runs with that placement pinned (its
   bidirectional initial-mapping search is skipped).

The instance solved in step 1 has one map step instead of one per gate, so it
stays tractable far beyond the point where full SATMAP times out; the price is
that routing quality is back in heuristic territory.  The ablation benchmark
``bench_ablation_hybrid.py`` measures that trade-off.
"""

from __future__ import annotations

import time
from array import array

from repro.api.protocol import BaseRouter
from repro.baselines.base import interaction_counts
from repro.baselines.sabre import SabreRouter
from repro.circuits.circuit import QuantumCircuit
from repro.core.result import RoutingResult, RoutingStatus
from repro.hardware.architecture import Architecture
from repro.maxsat.cardinality import pairwise_amo_clauses
from repro.maxsat.solver import MaxSatSolver
from repro.maxsat.wcnf import WcnfBuilder


class HybridSatMapRouter(BaseRouter):
    """Optimal MaxSAT placement followed by SABRE routing."""

    def __init__(self, time_budget: float = 60.0, placement_share: float = 0.5,
                 verify: bool = True, solver_backend: str | None = None,
                 name: str = "HYBRID-SATMAP") -> None:
        if not 0.0 < placement_share < 1.0:
            raise ValueError("placement_share must be strictly between 0 and 1")
        super().__init__(time_budget=time_budget, verify=verify)
        self.placement_share = placement_share
        self.solver_backend = solver_backend
        self.name = name

    # ------------------------------------------------------------------ API

    def _route(self, circuit: QuantumCircuit, architecture: Architecture,
               deadline: float) -> RoutingResult:
        """Place with MaxSAT, route with SABRE, and report one result."""
        start = time.monotonic()
        if circuit.num_qubits > architecture.num_qubits:
            return RoutingResult(
                status=RoutingStatus.ERROR,
                router_name=self.name,
                circuit_name=circuit.name,
                notes="circuit has more qubits than the architecture",
            )
        placement_budget = self.time_budget * self.placement_share
        mapping, placement_stats = self.solve_placement(circuit, architecture,
                                                        placement_budget)

        routing_budget = max(0.001, deadline - time.monotonic())
        sabre = SabreRouter(time_budget=routing_budget, initial_mapping=mapping,
                            verify=False)
        result = sabre.route(circuit, architecture)
        result.sat_calls = placement_stats["sat_calls"]
        result.num_variables = placement_stats["num_variables"]
        result.num_hard_clauses = placement_stats["num_hard_clauses"]
        result.num_soft_clauses = placement_stats["num_soft_clauses"]
        result.notes = ("placement " + placement_stats["placement_quality"]
                        + "; routing heuristic")
        return result

    # ------------------------------------------------------------ placement

    def solve_placement(self, circuit: QuantumCircuit, architecture: Architecture,
                        time_budget: float) -> tuple[dict[int, int], dict]:
        """Choose an initial mapping by weighted MaxSAT over one map step.

        Returns the mapping and a statistics dictionary.  Falls back to the
        identity mapping if the solver produces no model within the budget
        (possible only for extremely tight budgets, since the hard constraints
        are trivially satisfiable).
        """
        builder, map_var = placement_instance(circuit, architecture)
        maxsat = MaxSatSolver(backend=self.solver_backend)
        num_logical = circuit.num_qubits
        num_physical = architecture.num_qubits
        result = maxsat.solve(builder, time_budget=time_budget)
        stats = {
            "sat_calls": result.sat_calls,
            "num_variables": builder.num_vars,
            "num_hard_clauses": builder.num_hard,
            "num_soft_clauses": builder.num_soft,
            "clauses_streamed": maxsat.clauses_streamed,
            "learnt_retained": maxsat.session.num_learnt(),
            "placement_quality": "optimal" if result.is_optimal else "anytime",
        }
        if not result.has_model:
            stats["placement_quality"] = "fallback-identity"
            return {logical: logical for logical in range(num_logical)}, stats

        mapping: dict[int, int] = {}
        for (logical, physical), variable in map_var.items():
            if result.model.get(variable, False):
                mapping[logical] = physical
        # Guard against partially-assigned models from early termination.
        used = set(mapping.values())
        for logical in range(num_logical):
            if logical not in mapping:
                mapping[logical] = next(p for p in range(num_physical) if p not in used)
                used.add(mapping[logical])
        return mapping, stats


def placement_instance(circuit: QuantumCircuit, architecture: Architecture
                       ) -> tuple[WcnfBuilder, dict[tuple[int, int], int]]:
    """The weighted placement MaxSAT instance and its ``map`` variables.

    Hard clauses are the paper's Hard A over one map step, written with
    every pair's placement clauses into one flat buffer; each interacting
    logical pair contributes a soft clause, weighted by its interaction
    count, that holds exactly when the pair lands on an edge.
    """
    builder = WcnfBuilder()
    num_logical = circuit.num_qubits
    num_physical = architecture.num_qubits
    map_var = {(logical, physical): builder.new_var()
               for logical in range(num_logical)
               for physical in range(num_physical)}

    # Hard A: every logical qubit sits on exactly one physical qubit and
    # no two logical qubits share one (the paper's injectivity/totality).
    out: list[int] = []
    for logical in range(num_logical):
        row = [map_var[(logical, physical)] for physical in range(num_physical)]
        out += row
        out.append(0)
        pairwise_amo_clauses(out, row)
    for physical in range(num_physical):
        pairwise_amo_clauses(out, [map_var[(logical, physical)]
                                   for logical in range(num_logical)])

    # Soft: an interacting pair placed on an edge satisfies its clause.
    counts = interaction_counts(circuit)
    for (first, second), count in sorted(counts.items()):
        adjacency_literals = []
        for (physical_a, physical_b) in architecture.edges:
            for (pa, pb) in ((physical_a, physical_b), (physical_b, physical_a)):
                placed = builder.new_var()
                out += (-placed, map_var[(first, pa)], 0,
                        -placed, map_var[(second, pb)], 0)
                adjacency_literals.append(placed)
        builder.add_soft(adjacency_literals, weight=count)
    builder.add_flat(array("i", out))
    return builder, map_var


def placement_adjacency_score(circuit: QuantumCircuit, architecture: Architecture,
                              mapping: dict[int, int]) -> int:
    """Total interaction weight placed on edges by ``mapping``.

    This is the objective the hybrid placement maximises; exposing it lets
    tests and benchmarks compare placements from different strategies.
    """
    counts = interaction_counts(circuit)
    score = 0
    for (first, second), count in counts.items():
        if architecture.are_adjacent(mapping[first], mapping[second]):
            score += count
    return score
