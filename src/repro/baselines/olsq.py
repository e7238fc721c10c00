"""TB-OLSQ-style constraint-based router.

TB-OLSQ (Tan & Cong, ICCAD 2020) formulates layout synthesis as an SMT problem
over "transition blocks" and finds the minimum SWAP count by repeatedly asking
the solver whether a solution with at most ``k`` SWAPs exists, increasing the
bound until it does.  This module reproduces that solving style on top of our
SAT stack:

* the constraints are the same Boolean QMR constraints SATMAP uses (the paper
  notes the two encodings have roughly the same asymptotic size), but
* optimisation is *bound-driven and not anytime*: a cardinality constraint
  "at most k SWAPs" is added as hard, the instance is solved as plain SAT, and
  ``k`` grows from 0 until satisfiable.  If the budget expires before the
  first satisfiable bound, nothing at all is returned -- which is exactly the
  behavioural difference from SATMAP's anytime MaxSAT loop that drives the
  paper's Q1 comparison.
"""

from __future__ import annotations

import time

from repro.baselines.base import Router
from repro.circuits.circuit import QuantumCircuit
from repro.core.encoder import EncodingOptions, QmrEncoder
from repro.core.extraction import build_routed_circuit, extract_solution
from repro.core.result import RoutingResult, RoutingStatus
from repro.core.variables import NOOP
from repro.hardware.architecture import Architecture
from repro.maxsat.cardinality import Totalizer
from repro.sat.backends import create_solver
from repro.sat.solver import SolverStatus


class OlsqStyleRouter(Router):
    """Optimal constraint-based router with bound-driven (non-anytime) search."""

    name = "TB-OLSQ-like"

    def __init__(self, time_budget: float = 60.0, swaps_per_gate: int = 1,
                 max_bound: int | None = None, verify: bool = True) -> None:
        super().__init__(time_budget=time_budget, verify=verify)
        self.swaps_per_gate = swaps_per_gate
        self.max_bound = max_bound

    def _route(self, circuit: QuantumCircuit, architecture: Architecture,
               deadline: float) -> RoutingResult:
        start = time.monotonic()
        options = EncodingOptions(swaps_per_gate=self.swaps_per_gate,
                                  collapse_repeated_pairs=True)
        encoder = QmrEncoder(architecture, options)
        encoding = encoder.encode(circuit)

        # "Performing a SWAP" literals: the negation of each slot's no-op.
        swap_indicator = [-encoding.registry.swap_var(NOOP, step, slot)
                          for step, slot in encoding.swap_slots]

        sat = create_solver()
        loaded_hard = encoding.builder.stream_hard(sat)
        totalizer = Totalizer(encoding.builder, swap_indicator)
        encoding.builder.stream_hard(sat, loaded_hard)

        max_bound = self.max_bound
        if max_bound is None:
            max_bound = len(swap_indicator)

        sat_calls = 0
        bound = 0
        while bound <= max_bound:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            assumptions = totalizer.assumption_for_at_most(bound)
            result = sat.solve(assumptions=assumptions, time_budget=remaining)
            sat_calls += 1
            if result.status is SolverStatus.SAT:
                solution = extract_solution(encoding, result.model)
                routed = build_routed_circuit(circuit, encoding, solution)
                return RoutingResult(
                    status=RoutingStatus.OPTIMAL,
                    router_name=self.name,
                    circuit_name=circuit.name,
                    initial_mapping=solution.initial_mapping,
                    final_mapping=solution.final_mapping,
                    routed_circuit=routed,
                    swap_count=solution.swap_count,
                    solve_time=time.monotonic() - start,
                    sat_calls=sat_calls,
                    optimal=True,
                    num_variables=encoding.num_variables,
                    num_hard_clauses=encoding.num_hard_clauses,
                    num_soft_clauses=0,
                )
            if result.status is SolverStatus.UNKNOWN:
                break
            bound += 1

        return RoutingResult(
            status=RoutingStatus.TIMEOUT,
            router_name=self.name,
            circuit_name=circuit.name,
            solve_time=time.monotonic() - start,
            sat_calls=sat_calls,
            num_variables=encoding.num_variables,
            num_hard_clauses=encoding.num_hard_clauses,
            notes=f"no solution proven within bound {bound}",
        )
