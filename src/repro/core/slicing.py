"""The locally optimal relaxation (Section V): circuit slicing with backtracking.

The circuit is cut into consecutive slices of ``slice_size`` two-qubit gates.
Slice 0 is solved exactly as in the monolithic encoding.  Every later slice is
solved with its initial map pinned to the previous slice's final map (the
paper's step 2), and with a SWAP slot before its first gate so it can still
move qubits if the inherited map does not suit its first gate.  If a slice's
constraints are unsatisfiable -- possible whenever ``swaps_per_gate`` is below
the graph diameter -- we *backtrack*: the previous slice's final mapping is
excluded by a new hard clause (the negation of its assignment) and the
previous slice is re-solved, exactly as described in Section V.

Memory is bounded by the backtracking window, not by the circuit length.
Backtracking moves down one slice per unit of budget, so once slice ``i`` is
solved no slice below ``floor = i + 1 - (backtrack_limit - backtracks)`` can
ever be re-solved, and that floor never decreases.  Slices below it keep only
their :class:`RoutingResult` (all the stitching reads); their solve sessions
are released.  Slices inside the window keep their result and their
:class:`SliceContext` but never the model dict.  The window therefore holds
at most ``backtrack_limit + 1`` live sessions, and releasing the rest changes
nothing the search can see.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.circuits.circuit import QuantumCircuit
from repro.core.result import RoutingResult, RoutingStatus
from repro.core.satmap import SliceContext
from repro.hardware.architecture import Architecture
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.satmap import SatMapRouter


@dataclass
class SliceState:
    """Bookkeeping for one slice during the iterative solve."""

    index: int
    circuit: QuantumCircuit
    #: The accepted solution; ``None`` until solved and after a backtrack
    #: rejects it.  Only the result is kept, never the model or encoding.
    result: RoutingResult | None = None
    #: Final mappings excluded by backtracking (the negation of each becomes a
    #: hard clause when the slice is re-solved).
    excluded_final_mappings: list[dict[int, int]] = field(default_factory=list)
    #: SWAP slots granted to the leading transition (escalated on failure).
    leading_slots: int = 1
    #: SWAP slots per gate inside the slice (escalated as a last resort).
    swaps_per_gate: int | None = None
    #: Persistent solve context: one live session per
    #: slice inside the backtracking window, so re-solves stream only the new
    #: exclusion clause and swap the initial-map assumptions instead of
    #: re-encoding.  Released (set to ``None``) once the slice falls below
    #: the window's floor, after which backtracking can no longer reach it;
    #: at most ``backtrack_limit + 1`` slices hold one at a time.
    context: SliceContext | None = None


def route_sliced(circuit: QuantumCircuit, architecture: Architecture,
                 router: "SatMapRouter") -> RoutingResult:
    """Apply the locally optimal relaxation with the router's configuration.

    The solve order follows Section V: solve slices left to right, pinning
    each slice's initial map to its predecessor's final map, and backtrack
    (exclude the predecessor's mapping and re-solve it) when a slice is
    unsatisfiable.  Once the backtracking budget is spent we escalate instead
    of failing: first the unsatisfiable slice's leading transition is granted
    more SWAP slots (up to the graph diameter, which always suffices to repair
    its first gate), then its per-gate slot count is raised.  Escalation keeps
    the relaxation complete without changing its locally-optimal character.

    The result's ``stage_timings`` add up every attempt, including the ones
    later undone by backtracking or superseded by an escalation.
    """
    start = time.monotonic()
    diameter = max(1, architecture.diameter())
    slices = [SliceState(index, sub, leading_slots=router.swaps_per_gate,
                         swaps_per_gate=None)
              for index, sub
              in enumerate(circuit.sliced_by_two_qubit_gates(router.slice_size))]
    stage_timings: dict[str, float] = {}
    backtracks = 0
    index = 0
    released = 0  # slices below this index hold no solve context
    while index < len(slices):
        remaining = router.time_budget - (time.monotonic() - start)
        if remaining <= 0:
            return _timeout_result(router, circuit, slices, backtracks,
                                   stage_timings)
        state = slices[index]
        fixed = None
        if index > 0:
            previous = slices[index - 1].result
            assert previous is not None and previous.solved
            fixed = previous.final_mapping
        with obs_trace.span("slice", slice=state.index,
                            backtracks=backtracks) as slice_span:
            outcome = router.solve_monolithic(
                state.circuit, architecture, remaining,
                fixed_initial_mapping=fixed,
                excluded_final_mappings=state.excluded_final_mappings,
                leading_slots=state.leading_slots if index > 0 else None,
                swaps_per_gate=state.swaps_per_gate,
                context=state.context,
            )
            slice_span.set(status=outcome.result.status.value,
                           swaps=outcome.result.swap_count)
        state.context = outcome.context
        for stage, seconds in outcome.result.stage_timings.items():
            stage_timings[stage] = stage_timings.get(stage, 0.0) + seconds
        if outcome.result.solved:
            state.result = outcome.result
            index += 1
            # Backtracking from ``index`` re-solves at most the
            # remaining budget's worth of slices below it.
            floor = index - (router.backtrack_limit - backtracks)
            while released < floor:
                slices[released].context = None
                released += 1
            continue
        if outcome.result.status is RoutingStatus.TIMEOUT:
            return _timeout_result(router, circuit, slices, backtracks,
                                   stage_timings)

        # UNSAT.  Prefer the paper's backtracking; escalate once spent.
        if index > 0 and backtracks < router.backtrack_limit:
            backtracks += 1
            previous_state = slices[index - 1]
            assert previous_state.result is not None
            previous_state.excluded_final_mappings.append(
                dict(previous_state.result.final_mapping))
            previous_state.result = None
            state.result = None
            index -= 1
            continue
        if index > 0 and state.leading_slots < diameter:
            state.leading_slots = min(diameter, state.leading_slots * 2)
            continue
        current_swaps = state.swaps_per_gate or router.swaps_per_gate
        if current_swaps < diameter:
            state.swaps_per_gate = min(diameter, current_swaps + 1)
            continue
        result = outcome.result
        result.backtracks = backtracks
        result.num_slices = len(slices)
        result.stage_timings = stage_timings
        return result

    return _stitch(router, circuit, architecture, slices, backtracks,
                   time.monotonic() - start, stage_timings)


def _stitch(router: "SatMapRouter", circuit: QuantumCircuit,
            architecture: Architecture, slices: list[SliceState],
            backtracks: int, elapsed: float,
            stage_timings: dict[str, float]) -> RoutingResult:
    """Concatenate per-slice routed circuits into the full solution.

    ``stage_timings`` are the caller's totals over every slice attempt; the
    other figures describe the slices that made it into the solution.
    """
    routed = QuantumCircuit(architecture.num_qubits,
                            name=f"{circuit.name}@{architecture.name}")
    total_swaps = 0
    total_sat_calls = 0
    total_vars = 0
    total_hard = 0
    total_soft = 0
    all_optimal = True
    clauses_streamed = 0
    learnt_retained = 0
    solver_stats: dict[str, int] = {}
    for state in slices:
        result = state.result
        assert result is not None and result.routed_circuit is not None
        routed.extend(result.routed_circuit)  # array-level bulk copy
        total_swaps += result.swap_count
        total_sat_calls += result.sat_calls
        total_vars += result.num_variables
        total_hard += result.num_hard_clauses
        total_soft += result.num_soft_clauses
        all_optimal = all_optimal and result.optimal
        clauses_streamed += result.clauses_streamed
        learnt_retained += result.learnt_clauses_retained
        for counter, value in result.solver_stats.items():
            if counter == "backend":
                previous = solver_stats.get("backend")
                solver_stats["backend"] = (value if previous in (None, value)
                                           else "mixed")
            else:
                solver_stats[counter] = solver_stats.get(counter, 0) + int(value)

    first = slices[0].result
    last = slices[-1].result
    assert first is not None and last is not None
    objective_value = None
    if router.noise_model is not None:
        from repro.core.satmap import _routed_fidelity

        objective_value = _routed_fidelity(routed, router.noise_model)
    return RoutingResult(
        objective_value=objective_value,
        status=RoutingStatus.FEASIBLE,
        router_name=router.name,
        circuit_name=circuit.name,
        initial_mapping=first.initial_mapping,
        final_mapping=last.final_mapping,
        routed_circuit=routed,
        swap_count=total_swaps,
        solve_time=elapsed,
        sat_calls=total_sat_calls,
        optimal=False,  # local optimality only; never claim global optimality
        num_variables=total_vars,
        num_hard_clauses=total_hard,
        num_soft_clauses=total_soft,
        num_slices=len(slices),
        backtracks=backtracks,
        notes="locally optimal (sliced)" if all_optimal else "sliced, some slices anytime",
        stage_timings=stage_timings,
        clauses_streamed=clauses_streamed,
        learnt_clauses_retained=learnt_retained,
        solver_stats=solver_stats,
    )


def _timeout_result(router: "SatMapRouter", circuit: QuantumCircuit,
                    slices: list[SliceState], backtracks: int,
                    stage_timings: dict[str, float]) -> RoutingResult:
    return RoutingResult(
        stage_timings=stage_timings,
        status=RoutingStatus.TIMEOUT,
        router_name=router.name,
        circuit_name=circuit.name,
        num_slices=len(slices),
        backtracks=backtracks,
        notes="time budget exhausted before all slices were solved",
    )
