"""The SATMAP router.

:class:`SatMapRouter` is the main entry point of the library, mirroring the
paper's tool of the same name:

* with ``slice_size=None`` it encodes the whole circuit as one MaxSAT instance
  (the paper's NL-SATMAP configuration);
* with a ``slice_size`` it applies the locally optimal relaxation of Section V
  (implemented in :mod:`repro.core.slicing`);
* :func:`repro.core.cyclic.route_cyclic` layers the cyclic relaxation of
  Section VI on top.

The ``time_budget`` plays the role of the paper's 30-minute compilation
budget: the MaxSAT search is anytime, so when the budget expires the best
model found so far is extracted and reported as a feasible (non-optimal)
solution.

Solving is *incremental*: each (sub)circuit encoding is solved on a
persistent :class:`~repro.sat.session.SatSession` and the resulting
:class:`SliceContext` can be handed back to :meth:`SatMapRouter.solve_monolithic`
to re-solve the same encoding -- with extra excluded final mappings, or under
a different inherited initial map expressed as assumptions -- without
re-encoding and without losing what the SAT solver has learnt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.protocol import BaseRouter
from repro.circuits.circuit import QuantumCircuit
from repro.obs import trace as obs_trace
from repro.core.encoder import EncodingOptions, QmrEncoder, QmrEncoding
from repro.core.extraction import build_routed_circuit, extract_solution
from repro.core.result import RoutingResult, RoutingStatus
from repro.hardware.architecture import Architecture
from repro.hardware.noise import NoiseModel
from repro.maxsat.solver import MaxSatSolver, MaxSatStatus
from repro.sat.session import SatSession


@dataclass
class SliceContext:
    """Reusable solve state for one (sub)circuit encoding.

    Bundles the encoding and the MaxSAT search that solves it on its
    persistent session (``maxsat.session``); the search's relaxation state
    (selectors, bound totalizer) is tied to both.  A context is only
    reusable for the *same* slot configuration; escalation (more leading
    slots, more swaps per gate) changes the encoding shape and forces a
    rebuild.
    """

    encoding: QmrEncoding
    maxsat: MaxSatSolver
    #: Identity of the instance the encoding was built for (circuit
    #: interactions + architecture); reuse with anything else is refused.
    instance_key: tuple = ()
    #: The excluded final mappings already added to the encoding, in order.
    #: Exclusion clauses are permanent, so a reuse request must *extend*
    #: this list; anything else gets a fresh context.
    excluded: list[dict[int, int]] = field(default_factory=list)
    leading_slots: int | None = None
    swaps_per_gate: int | None = None
    cyclic: bool = False
    solves: int = 0

    @property
    def excluded_count(self) -> int:
        return len(self.excluded)

    def matches(self, instance_key: tuple, leading_slots: int | None,
                swaps_per_gate: int | None, cyclic: bool,
                fixed_initial_mapping: dict[int, int] | None,
                excluded_final_mappings: list[dict[int, int]]) -> bool:
        """Whether this context can solve the requested configuration."""
        if not self.maxsat.session.ok:
            return False  # the streamed formula went root-UNSAT; start over
        if self.instance_key != instance_key:
            return False  # a context never answers for a different instance
        if excluded_final_mappings[:len(self.excluded)] != self.excluded:
            # Already-streamed exclusions are permanent; a request that does
            # not extend them needs a clean session.
            return False
        if (self.leading_slots != leading_slots
                or self.swaps_per_gate != swaps_per_gate
                or self.cyclic != cyclic):
            return False
        # A pin is a set of assumptions on the map before the leading
        # transition, so a pinned request needs an encoding that has one and
        # an unpinned request one that does not.
        pinned = fixed_initial_mapping is not None
        return pinned == (self.encoding.options.leading_slots is not None)


@dataclass
class MonolithicOutcome:
    """Result of solving one (sub)circuit's encoding, before stitching."""

    result: RoutingResult
    #: Hand it back to ``solve_monolithic`` to re-solve this encoding without
    #: rebuilding.
    context: SliceContext


class SatMapRouter(BaseRouter):
    """Qubit mapping and routing via MaxSAT.

    Parameters
    ----------
    slice_size:
        Number of two-qubit gates per slice for the locally optimal
        relaxation; ``None`` disables slicing (NL-SATMAP).
    swaps_per_gate:
        The paper's ``n``: SWAP slots available before each two-qubit gate.
    time_budget:
        Wall-clock budget in seconds for the whole routing call.  The MaxSAT
        search is the anytime linear SAT->UNSAT search, so an expired budget
        still yields the best model found so far.
    backtrack_limit:
        Maximum number of backtracking steps the local relaxation may take.
    noise_model:
        When provided, soft clauses are weighted by gate fidelities (Q6).
    verify:
        Run the independent verifier on every produced solution (default on).
    solver_backend:
        SAT core (``python``, ``native`` or ``auto``); ``None`` defers to
        ``$REPRO_SAT_BACKEND``.

    Every solve is one serial MaxSAT search per (slice of a) circuit.
    """

    def __init__(
        self,
        slice_size: int | None = None,
        swaps_per_gate: int = 1,
        time_budget: float = 60.0,
        backtrack_limit: int = 10,
        collapse_repeated_pairs: bool = True,
        noise_model: NoiseModel | None = None,
        verify: bool = True,
        solver_backend: str | None = None,
        name: str | None = None,
    ) -> None:
        if slice_size is not None and slice_size <= 0:
            raise ValueError("slice_size must be positive or None")
        if swaps_per_gate < 1:
            raise ValueError("swaps_per_gate must be at least 1")
        if solver_backend is not None:
            from repro.sat.backends import BACKEND_CHOICES

            if solver_backend not in BACKEND_CHOICES:
                raise ValueError(
                    "solver_backend must be one of "
                    f"{', '.join(BACKEND_CHOICES)} or None, "
                    f"got {solver_backend!r}")
        super().__init__(time_budget=time_budget, verify=verify)
        self.slice_size = slice_size
        self.swaps_per_gate = swaps_per_gate
        self.backtrack_limit = backtrack_limit
        self.collapse_repeated_pairs = collapse_repeated_pairs
        self.noise_model = noise_model
        #: Requested solve core (python | native | auto); ``None`` defers to
        #: ``$REPRO_SAT_BACKEND`` / auto at session-construction time.
        self.solver_backend = solver_backend
        self.name = name or ("SATMAP" if slice_size is not None else "NL-SATMAP")

    # ------------------------------------------------------------------ API

    def _route(self, circuit: QuantumCircuit, architecture: Architecture,
               deadline: float) -> RoutingResult:
        """Map and route ``circuit``; scaffolding lives in ``BaseRouter``."""
        if self.slice_size is None or circuit.num_two_qubit_gates <= self.slice_size:
            remaining = max(0.0, deadline - time.monotonic())
            return self.solve_monolithic(circuit, architecture, remaining).result
        from repro.core.slicing import route_sliced

        return route_sliced(circuit, architecture, self)

    # ------------------------------------------------------------ internals

    def solve_monolithic(
        self,
        circuit: QuantumCircuit,
        architecture: Architecture,
        time_budget: float,
        fixed_initial_mapping: dict[int, int] | None = None,
        cyclic: bool = False,
        excluded_final_mappings: list[dict[int, int]] | None = None,
        leading_slots: int | None = None,
        swaps_per_gate: int | None = None,
        context: SliceContext | None = None,
    ) -> MonolithicOutcome:
        """Encode and solve one circuit as a single MaxSAT instance.

        ``excluded_final_mappings`` lists final maps that must not be returned
        again; the local relaxation uses it to implement backtracking (each
        entry becomes the negation of that mapping's assignment, Example 10).

        ``fixed_initial_mapping`` (the inherited map) is pinned per solve by
        assumptions, never by clauses.  A compatible ``context`` (from a
        previous outcome on the same circuit) is *reused*: only exclusion
        clauses the context has not seen yet are streamed in, and the
        session's learnt clauses carry over.
        """
        excluded = excluded_final_mappings or []
        timings: dict[str, float] = {}
        encode_start = time.monotonic()
        instance_key = _instance_key(circuit, architecture)

        with obs_trace.span("encode") as encode_span:
            if (context is not None
                    and context.matches(instance_key,
                                        leading_slots, swaps_per_gate,
                                        cyclic, fixed_initial_mapping, excluded)):
                encode_span.set(reused=True)
            else:
                context = self._build_context(circuit, architecture, instance_key,
                                              fixed_initial_mapping, cyclic,
                                              leading_slots, swaps_per_gate)
            encoding = context.encoding
            for mapping in excluded[context.excluded_count:]:
                clause = encoding.final_mapping_exclusion(mapping)
                if clause:
                    encoding.builder.add_hard(clause)
                context.excluded.append(dict(mapping))
            timings["encode"] = time.monotonic() - encode_start
            encode_span.set(variables=encoding.num_variables,
                            hard_clauses=encoding.num_hard_clauses,
                            soft_clauses=encoding.num_soft_clauses)

        assumptions = encoding.initial_mapping_assumptions(fixed_initial_mapping or {})

        session = context.maxsat.session
        solve_start = time.monotonic()
        with obs_trace.span("solve") as solve_span:
            maxsat_result = context.maxsat.solve(encoding.builder,
                                                 time_budget=time_budget,
                                                 assumptions=assumptions)
            timings["solve"] = time.monotonic() - solve_start
            solve_span.set(status=maxsat_result.status.value,
                           sat_calls=maxsat_result.sat_calls,
                           **session.solver_stats())
        context.solves += 1

        base = RoutingResult(
            status=RoutingStatus.TIMEOUT,
            router_name=self.name,
            circuit_name=circuit.name,
            sat_calls=maxsat_result.sat_calls,
            num_variables=encoding.num_variables,
            num_hard_clauses=encoding.num_hard_clauses,
            num_soft_clauses=encoding.num_soft_clauses,
            stage_timings=timings,
            clauses_streamed=session.stats.clauses_streamed,
            learnt_clauses_retained=session.learnt_clauses_retained,
            solver_stats=session.solver_stats(),
        )
        if maxsat_result.status is MaxSatStatus.UNSATISFIABLE:
            base.status = RoutingStatus.UNSATISFIABLE
        if not maxsat_result.has_model:
            return MonolithicOutcome(base, context)

        extract_start = time.monotonic()
        with obs_trace.span("extract") as extract_span:
            solution = extract_solution(encoding, maxsat_result.model)
            routed = build_routed_circuit(circuit, encoding, solution)
            timings["extract"] = time.monotonic() - extract_start
            extract_span.set(swaps=solution.swap_count)
        base.status = (RoutingStatus.OPTIMAL if maxsat_result.is_optimal
                       else RoutingStatus.FEASIBLE)
        base.optimal = maxsat_result.is_optimal
        base.initial_mapping = solution.initial_mapping
        base.final_mapping = solution.final_mapping
        base.routed_circuit = routed
        base.swap_count = solution.swap_count
        if self.noise_model is not None:
            base.objective_value = _routed_fidelity(routed, self.noise_model)
        return MonolithicOutcome(base, context)

    def _build_context(
        self,
        circuit: QuantumCircuit,
        architecture: Architecture,
        instance_key: tuple,
        fixed_initial_mapping: dict[int, int] | None,
        cyclic: bool,
        leading_slots: int | None,
        swaps_per_gate: int | None,
    ) -> SliceContext:
        """Fresh encoding and a MaxSAT search on a fresh session."""
        pinned = fixed_initial_mapping is not None
        swaps = swaps_per_gate or self.swaps_per_gate
        options = EncodingOptions(
            swaps_per_gate=swaps,
            collapse_repeated_pairs=self.collapse_repeated_pairs,
            leading_slots=(leading_slots or swaps) if pinned else None,
            cyclic=cyclic,
            noise_model=self.noise_model,
        )
        return SliceContext(
            encoding=QmrEncoder(architecture, options).encode(circuit),
            maxsat=MaxSatSolver(session=SatSession(backend=self.solver_backend)),
            instance_key=instance_key,
            leading_slots=leading_slots,
            swaps_per_gate=swaps_per_gate,
            cyclic=cyclic,
        )


def _instance_key(circuit: QuantumCircuit, architecture: Architecture) -> tuple:
    """Cheap identity of (circuit interactions, architecture) for context reuse."""
    return (circuit.num_qubits,
            tuple(circuit.interaction_sequence()),
            architecture.num_qubits,
            tuple(sorted(tuple(sorted(edge)) for edge in architecture.edges)))


def _routed_fidelity(routed: QuantumCircuit, noise: NoiseModel) -> float:
    """Estimated success probability of a routed circuit under ``noise``."""
    from repro.circuits.ir import SWAP_OP

    executed_edges: list[tuple[int, int]] = []
    ir = routed.ir
    op, qa, qb = ir.op, ir.qa, ir.qb
    for index in ir.two_qubit_indices():
        absolute = ir.start + index
        edge = (qa[absolute], qb[absolute])
        repetitions = 3 if op[absolute] == SWAP_OP else 1
        executed_edges.extend([edge] * repetitions)
    return noise.circuit_fidelity(executed_edges)
