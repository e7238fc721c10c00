"""Routing results.

A :class:`RoutingResult` is what every router in this repository returns --
SATMAP itself and all baselines -- so the analysis harness can compare them
uniformly.  Cost is reported the way the paper reports it: the number of
*added CNOT gates*, where one SWAP decomposes into three CNOTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.circuits.circuit import QuantumCircuit


class RoutingStatus(Enum):
    """How the solution was obtained."""

    OPTIMAL = "optimal"  # proven optimal for the (possibly relaxed) instance
    FEASIBLE = "feasible"  # valid solution, optimality not proven
    TIMEOUT = "timeout"  # no solution found within the budget
    UNSATISFIABLE = "unsatisfiable"  # the instance admits no solution
    ERROR = "error"


@dataclass
class RoutingResult:
    """Outcome of a mapping-and-routing run."""

    status: RoutingStatus
    router_name: str
    circuit_name: str = ""
    initial_mapping: dict[int, int] = field(default_factory=dict)
    final_mapping: dict[int, int] = field(default_factory=dict)
    routed_circuit: QuantumCircuit | None = None
    swap_count: int = 0
    solve_time: float = 0.0
    sat_calls: int = 0
    optimal: bool = False
    num_variables: int = 0
    num_hard_clauses: int = 0
    num_soft_clauses: int = 0
    num_slices: int = 1
    backtracks: int = 0
    objective_value: float | None = None
    notes: str = ""
    #: Wall-clock seconds per solve stage ("encode" / "solve" / "extract"),
    #: summed across slices for sliced runs.  Populated by the MaxSAT-based
    #: routers; heuristics leave it empty.
    stage_timings: dict[str, float] = field(default_factory=dict)
    #: Cumulative clauses streamed into the live solver(s) that produced
    #: this result, over their whole lifetime (a warm re-solve reports the
    #: solver's total, not just its own delta).
    clauses_streamed: int = 0
    #: Learnt clauses still retained by the solver(s) when the result was
    #: produced -- the visible payoff of incremental reuse.
    learnt_clauses_retained: int = 0
    #: CDCL depth counters (conflicts / decisions / propagations / restarts /
    #: learnt_clauses) accumulated by the solver(s) behind this result,
    #: summed across slices.  Heuristic routers leave it empty.
    solver_stats: dict = field(default_factory=dict)
    #: Serialised trace tree (a :meth:`repro.obs.Span.to_dict` payload) when
    #: the job ran under a tracer; excluded from equality so cached results
    #: compare by routing content only.
    trace: dict | None = field(default=None, repr=False, compare=False)

    SWAP_CNOT_COST: int = 3

    @property
    def solved(self) -> bool:
        """Whether a valid routed circuit was produced."""
        return self.status in (RoutingStatus.OPTIMAL, RoutingStatus.FEASIBLE)

    @property
    def added_cnots(self) -> int:
        """Cost in added CNOT gates (one SWAP = three CNOTs), as in the paper."""
        return self.SWAP_CNOT_COST * self.swap_count

    def summary(self) -> str:
        """One-line human-readable summary."""
        if not self.solved:
            return (f"{self.router_name} on {self.circuit_name}: {self.status.value} "
                    f"({self.solve_time:.2f}s)")
        tag = "optimal" if self.optimal else "feasible"
        return (f"{self.router_name} on {self.circuit_name}: {self.swap_count} swaps "
                f"({self.added_cnots} CNOTs, {tag}, {self.solve_time:.2f}s)")
