"""The cyclic-circuit relaxation (Section VI).

For circuits made of a repeated block (QAOA being the canonical example), the
relaxation solves the QMR constraints only for one block, with the additional
hard constraint that the final map equals the initial map.  The routed block
can then be stitched end-to-end any number of times: because the map returns
to its starting point, the copies compose without any extra routing.

:func:`route_cyclic` implements that recipe and returns a result for the full
repeated circuit.  When the block itself is too large for a monolithic solve,
``fallback_reset=True`` (default) routes the block with the locally optimal
relaxation instead and appends an explicitly computed SWAP sequence that
restores the initial mapping (approximate token swapping, see
:mod:`repro.hardware.token_swapping`), preserving the "final map == initial
map" property the stitching step relies on.
"""

from __future__ import annotations

import time

from repro.api.protocol import BaseRouter
from repro.circuits.circuit import QuantumCircuit
from repro.core.result import RoutingResult
from repro.core.satmap import SatMapRouter
from repro.core.verifier import verify_routing
from repro.hardware.architecture import Architecture
from repro.hardware.token_swapping import approximate_token_swapping


def route_cyclic(
    block: QuantumCircuit,
    cycles: int,
    architecture: Architecture,
    router: SatMapRouter | None = None,
    prelude: QuantumCircuit | None = None,
    fallback_reset: bool = True,
    verify: bool = True,
) -> RoutingResult:
    """Route ``prelude + block * cycles`` using the cyclic relaxation.

    Parameters
    ----------
    block:
        The repeating subcircuit (one QAOA cycle, for instance).
    cycles:
        How many times the block repeats.
    router:
        The SATMAP configuration to use for the block; a default router with a
        60 s budget is created when omitted.
    prelude:
        Optional gates executed once before the first block (the Hadamard
        layer of QAOA).  Only single-qubit gates are allowed there, as they
        are irrelevant to routing.
    fallback_reset:
        If the cyclic MaxSAT solve fails within the budget, route the block
        without the closure constraint and restore the initial map with
        explicit SWAPs computed by token swapping.
    """
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    if prelude is not None and prelude.num_two_qubit_gates:
        raise ValueError("the prelude may only contain single-qubit gates")
    router = router or SatMapRouter(name="CYC-SATMAP")
    start = time.monotonic()

    outcome = router.solve_monolithic(block, architecture, router.time_budget,
                                      cyclic=True)
    block_result = outcome.result
    used_fallback = False
    if not block_result.solved and fallback_reset:
        used_fallback = True
        # The cyclic attempt already consumed part of the budget; the
        # fallback solve gets only what is left, so the whole call stays
        # within router.time_budget instead of up to twice it.
        remaining = max(0.001, router.time_budget - (time.monotonic() - start))
        block_result = _route_block_with_reset(block, architecture, router,
                                               time_budget=remaining)

    if not block_result.solved:
        block_result.router_name = "CYC-" + router.name.removeprefix("CYC-")
        block_result.circuit_name = f"{block.name}x{cycles}"
        block_result.solve_time = time.monotonic() - start
        return block_result

    full_original = _compose_original(block, cycles, prelude)
    routed = QuantumCircuit(architecture.num_qubits,
                            name=f"{full_original.name}@{architecture.name}")
    initial_mapping = block_result.initial_mapping
    if prelude is not None:
        for name, qubits, params in prelude.iter_ops():
            routed.append_op(name, tuple(initial_mapping[q] for q in qubits),
                             params)
    assert block_result.routed_circuit is not None
    for _ in range(cycles):
        routed.extend(block_result.routed_circuit)  # array-level bulk copy

    result = RoutingResult(
        status=block_result.status,
        router_name="CYC-" + router.name.removeprefix("CYC-"),
        circuit_name=full_original.name,
        initial_mapping=initial_mapping,
        final_mapping=dict(initial_mapping),
        routed_circuit=routed,
        swap_count=block_result.swap_count * cycles,
        solve_time=time.monotonic() - start,
        sat_calls=block_result.sat_calls,
        optimal=False,  # optimal for the block, not for the repeated circuit
        num_variables=block_result.num_variables,
        num_hard_clauses=block_result.num_hard_clauses,
        num_soft_clauses=block_result.num_soft_clauses,
        num_slices=block_result.num_slices,
        backtracks=block_result.backtracks,
        notes=("cyclic relaxation with token-swap reset" if used_fallback
               else "cyclic relaxation"),
        stage_timings=dict(block_result.stage_timings),
        clauses_streamed=block_result.clauses_streamed,
        learnt_clauses_retained=block_result.learnt_clauses_retained,
    )
    if verify:
        verify_routing(full_original, routed, initial_mapping, architecture)
    return result


class CyclicRouter(BaseRouter):
    """The cyclic relaxation as a spec-constructible :class:`Router`.

    Treats the input circuit as the repeating block: ``route`` returns the
    routed ``block * cycles`` (with the final map equal to the initial map,
    so the copies compose swap-free).  With the default ``cycles=1`` this is
    simply routing under the closure constraint, which makes the router a
    drop-in portfolio entrant.  All options are scalars, so the registry can
    build it from ``"cyclic:cycles=4"`` and jobs hash deterministically.
    """

    name = "CYC-SATMAP"

    def __init__(self, cycles: int = 1, time_budget: float = 60.0,
                 slice_size: int | None = None, swaps_per_gate: int = 1,
                 fallback_reset: bool = True, verify: bool = True,
                 solver_backend: str | None = None) -> None:
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        super().__init__(time_budget=time_budget, verify=verify)
        self.cycles = cycles
        self.slice_size = slice_size
        self.swaps_per_gate = swaps_per_gate
        self.fallback_reset = fallback_reset
        self.solver_backend = solver_backend

    def _route(self, circuit: QuantumCircuit, architecture: Architecture,
               deadline: float) -> RoutingResult:
        inner = SatMapRouter(slice_size=self.slice_size,
                             swaps_per_gate=self.swaps_per_gate,
                             time_budget=self.time_budget,
                             solver_backend=self.solver_backend,
                             verify=False, name=self.name)
        # route_cyclic verifies against the *composed* circuit when asked;
        # BaseRouter._verify is overridden below to do the same.
        return route_cyclic(circuit, self.cycles, architecture, router=inner,
                            fallback_reset=self.fallback_reset, verify=False)

    def _circuit_label(self, circuit: QuantumCircuit) -> str:
        return (circuit.name if self.cycles == 1
                else f"{circuit.name}_x{self.cycles}")

    def _verify(self, circuit: QuantumCircuit, architecture: Architecture,
                result: RoutingResult) -> None:
        reference = _compose_original(circuit, self.cycles, None)
        verify_routing(reference, result.routed_circuit, result.initial_mapping,
                       architecture)


def _compose_original(block: QuantumCircuit, cycles: int,
                      prelude: QuantumCircuit | None) -> QuantumCircuit:
    name = f"{block.name}_x{cycles}"
    full = QuantumCircuit(block.num_qubits, name=name)
    if prelude is not None:
        full.extend(prelude)
    for _ in range(cycles):
        full.extend(block)
    return full


def _route_block_with_reset(block: QuantumCircuit, architecture: Architecture,
                            router: SatMapRouter,
                            time_budget: float | None = None) -> RoutingResult:
    """Route the block normally, then append SWAPs restoring the initial map.

    ``time_budget`` caps this solve (the caller passes its remaining time);
    the router's own budget is restored afterwards.
    """
    original_budget = router.time_budget
    if time_budget is not None:
        router.time_budget = time_budget
    try:
        base = router.route(block, architecture)
    finally:
        router.time_budget = original_budget
    if not base.solved or base.routed_circuit is None:
        return base
    reset_edges = approximate_token_swapping(architecture, base.final_mapping,
                                             base.initial_mapping)
    routed = base.routed_circuit.copy()
    for edge in reset_edges:
        routed.append_op("swap", edge)
    base.routed_circuit = routed
    base.swap_count += len(reset_edges)
    base.final_mapping = dict(base.initial_mapping)
    base.notes = "block routed with reset swaps"
    return base
