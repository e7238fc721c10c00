"""Session reuse across slice re-solves (the incremental solve path)."""

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import cx
from repro.circuits.random_circuits import random_circuit
from repro.core import SatMapRouter, verify_routing
from repro.hardware.topologies import line_architecture, ring_architecture


def ladder_circuit(num_qubits: int, rungs: int) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, name=f"ladder_{num_qubits}_{rungs}")
    for index in range(rungs):
        near = (index % (num_qubits - 1), index % (num_qubits - 1) + 1)
        far = (0, num_qubits - 1 - (index % (num_qubits - 2)))
        circuit.append(cx(*near))
        if far[0] != far[1]:
            circuit.append(cx(*far))
    return circuit


class TestMonolithicContextReuse:
    def test_outcome_carries_a_reusable_context(self):
        circuit = random_circuit(4, 8, seed=3)
        arch = ring_architecture(4)
        router = SatMapRouter(time_budget=30)
        outcome = router.solve_monolithic(circuit, arch, 30)
        assert outcome.result.solved
        assert outcome.context is not None
        assert outcome.context.maxsat.session.stats.clauses_streamed > 0
        assert outcome.context.solves == 1

    def test_exclusion_resolve_reuses_the_context(self):
        circuit = random_circuit(4, 8, seed=5)
        arch = ring_architecture(4)
        router = SatMapRouter(time_budget=30)
        first = router.solve_monolithic(circuit, arch, 30)
        assert first.result.solved
        second = router.solve_monolithic(
            circuit, arch, 30,
            excluded_final_mappings=[dict(first.result.final_mapping)],
            context=first.context)
        assert second.result.solved
        assert second.context is first.context
        assert second.context.solves == 2
        assert second.result.final_mapping != first.result.final_mapping
        verify_routing(circuit, second.result.routed_circuit,
                       second.result.initial_mapping, arch)

    def test_resolve_matches_from_scratch_swaps(self):
        """A re-solve on a reused session finds a fresh session's optimum."""
        circuit = random_circuit(4, 10, seed=9)
        arch = ring_architecture(4)
        router = SatMapRouter(time_budget=30)
        first = router.solve_monolithic(circuit, arch, 30)
        assert first.result.optimal
        excluded = [dict(first.result.final_mapping)]
        reused = router.solve_monolithic(
            circuit, arch, 30, excluded_final_mappings=excluded,
            context=first.context)
        # The reference streams the same exclusion into a new session.
        fresh = SatMapRouter(time_budget=30).solve_monolithic(
            circuit, arch, 30, excluded_final_mappings=excluded)
        assert reused.context is first.context
        assert fresh.context is not first.context
        assert fresh.context.solves == 1
        assert reused.result.optimal and fresh.result.optimal
        assert reused.result.swap_count == fresh.result.swap_count

    def test_context_for_a_different_circuit_is_refused(self):
        arch = ring_architecture(4)
        router = SatMapRouter(time_budget=30)
        first = router.solve_monolithic(random_circuit(4, 8, seed=21), arch, 30)
        other_circuit = random_circuit(4, 8, seed=22)
        second = router.solve_monolithic(other_circuit, arch, 30,
                                         context=first.context)
        assert second.context is not first.context
        assert second.result.solved
        verify_routing(other_circuit, second.result.routed_circuit,
                       second.result.initial_mapping, arch)

    def test_context_for_a_different_architecture_is_refused(self):
        circuit = random_circuit(4, 8, seed=23)
        router = SatMapRouter(time_budget=30)
        first = router.solve_monolithic(circuit, ring_architecture(4), 30)
        second = router.solve_monolithic(circuit, line_architecture(4), 30,
                                         context=first.context)
        assert second.context is not first.context
        assert second.result.solved

    def test_non_extending_exclusion_list_is_refused(self):
        """Streamed exclusions are permanent, so a different list must rebuild."""
        circuit = random_circuit(4, 8, seed=25)
        arch = ring_architecture(4)
        router = SatMapRouter(time_budget=30)
        first = router.solve_monolithic(circuit, arch, 30)
        mapping_a = dict(first.result.final_mapping)
        second = router.solve_monolithic(circuit, arch, 30,
                                         excluded_final_mappings=[mapping_a],
                                         context=first.context)
        mapping_b = dict(second.result.final_mapping)
        assert mapping_b != mapping_a
        # Asking to exclude only B (dropping A) is not an extension of the
        # streamed [A]; the context must be refused, and the fresh solve must
        # genuinely honour the new list: B never comes back, A may.
        third = router.solve_monolithic(circuit, arch, 30,
                                        excluded_final_mappings=[mapping_b],
                                        context=second.context)
        assert third.context is not second.context
        assert third.result.solved
        assert third.result.final_mapping != mapping_b

    def test_changed_slot_configuration_invalidates_the_context(self):
        circuit = random_circuit(4, 6, seed=11)
        arch = ring_architecture(4)
        router = SatMapRouter(time_budget=30)
        first = router.solve_monolithic(circuit, arch, 30)
        escalated = router.solve_monolithic(circuit, arch, 30, swaps_per_gate=2,
                                            context=first.context)
        assert escalated.result.solved
        assert escalated.context is not first.context

    def test_stage_timings_reported(self):
        circuit = random_circuit(4, 6, seed=13)
        arch = ring_architecture(4)
        outcome = SatMapRouter(time_budget=30).solve_monolithic(circuit, arch, 30)
        timings = outcome.result.stage_timings
        assert set(timings) == {"encode", "solve", "extract"}
        assert all(seconds >= 0 for seconds in timings.values())
        assert outcome.result.clauses_streamed > 0


class TestSlicedIncrementalEquivalence:
    def test_sliced_routing_verifies_in_both_modes(self):
        circuit = ladder_circuit(5, 6)
        arch = line_architecture(5)
        router = SatMapRouter(slice_size=2, time_budget=90, backtrack_limit=3)
        result = router.route(circuit, arch)
        assert result.solved
        verify_routing(circuit, result.routed_circuit,
                       result.initial_mapping, arch)

    def test_backtracking_works_on_warm_sessions(self):
        # Force handoffs that typically require backtracking or escalation and
        # make sure the incremental path still lands on a verified routing.
        circuit = ladder_circuit(5, 8)
        arch = line_architecture(5)
        router = SatMapRouter(slice_size=2, time_budget=120, backtrack_limit=5)
        result = router.route(circuit, arch)
        assert result.solved
        verify_routing(circuit, result.routed_circuit, result.initial_mapping, arch)
        assert result.stage_timings  # aggregated across slices
        # Releasing out-of-window sessions must not change the search: these
        # figures are the unreleased search's (the same on both backends).
        assert result.swap_count == 9
        assert result.backtracks == 0

    def test_released_sessions_leave_backtracking_unchanged(self):
        # Three to five backtracks over eight slices: slices drop below the
        # retention window while later ones still backtrack.  The figures
        # are the unreleased search's; the two cores search differently.
        circuit = random_circuit(5, 16, seed=2, single_qubit_ratio=0.0)
        arch = line_architecture(5)
        router = SatMapRouter(slice_size=2, time_budget=120, backtrack_limit=5)
        result = router.route(circuit, arch)
        assert result.solved and result.num_slices == 8
        verify_routing(circuit, result.routed_circuit, result.initial_mapping, arch)
        expected = {"native": (8, 3), "python": (14, 5)}
        assert (result.swap_count, result.backtracks) == \
            expected[result.solver_stats["backend"]]
