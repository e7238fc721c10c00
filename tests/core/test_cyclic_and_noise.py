"""Tests for the cyclic relaxation (Section VI) and the noise-aware objective (Q6)."""

import random

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, cx
from repro.circuits.qaoa import maxcut_qaoa_circuit, qaoa_repeated_block
from repro.core import NoiseAwareSatMapRouter, SatMapRouter, route_cyclic, verify_routing
from repro.core.result import RoutingStatus
from repro.hardware import named_architectures
from repro.hardware.noise import NoiseModel
from repro.hardware.token_swapping import apply_swaps, approximate_token_swapping
from repro.hardware.topologies import grid_architecture, line_architecture, ring_architecture


def reset_swaps(initial, final, arch):
    """The SWAPs the cyclic reset appends: they turn ``final`` into ``initial``."""
    swaps = approximate_token_swapping(arch, final, initial)
    for a, b in swaps:
        assert arch.are_adjacent(a, b)
    assert apply_swaps(final, swaps) == initial
    return swaps


class TestResetSwapSequence:
    def test_identity_needs_no_swaps(self):
        arch = line_architecture(3)
        mapping = {0: 0, 1: 1, 2: 2}
        assert reset_swaps(mapping, dict(mapping), arch) == []

    def test_single_transposition(self):
        arch = line_architecture(3)
        initial = {0: 0, 1: 1, 2: 2}
        final = {0: 1, 1: 0, 2: 2}
        swaps = reset_swaps(initial, final, arch)
        assert swaps == [(0, 1)]

    def test_reset_restores_mapping(self):
        arch = grid_architecture(2, 3)
        initial = {0: 0, 1: 1, 2: 2, 3: 3}
        final = {0: 4, 1: 2, 2: 0, 3: 5}
        reset_swaps(initial, final, arch)

    def test_reset_where_the_greedy_deadlocks(self):
        # A pair on which a pure greedy walk cycles without converging; the
        # spanning-tree completion must still finish it.
        arch = named_architectures()["tokyo8"]
        initial = {0: 1, 1: 3, 2: 2, 3: 0}
        final = {0: 0, 1: 1, 2: 5, 3: 4}
        reset_swaps(initial, final, arch)

    @pytest.mark.parametrize("name", sorted(named_architectures()))
    def test_reset_converges_on_every_catalog_device(self, name):
        arch = named_architectures()[name]
        rng = random.Random(name)
        for _ in range(8):
            tokens = rng.randint(1, arch.num_qubits)
            initial = dict(enumerate(rng.sample(range(arch.num_qubits), tokens)))
            final = dict(enumerate(rng.sample(range(arch.num_qubits), tokens)))
            reset_swaps(initial, final, arch)


class TestCyclicRouting:
    def test_block_stitches_into_full_circuit(self):
        block = QuantumCircuit(4, [cx(0, 1), cx(0, 2), cx(3, 2), cx(0, 3)], name="blk")
        arch = line_architecture(4)
        result = route_cyclic(block, cycles=3, architecture=arch,
                              router=SatMapRouter(time_budget=60))
        assert result.solved
        assert result.final_mapping == result.initial_mapping

    def test_swap_count_scales_with_cycles(self):
        block = QuantumCircuit(4, [cx(0, 1), cx(0, 2), cx(3, 2), cx(0, 3)], name="blk")
        arch = line_architecture(4)
        two = route_cyclic(block, 2, arch, router=SatMapRouter(time_budget=60))
        four = route_cyclic(block, 4, arch, router=SatMapRouter(time_budget=60))
        assert four.swap_count == 2 * two.swap_count

    def test_routed_full_circuit_verifies(self):
        block = qaoa_repeated_block(4, degree=3, seed=2)
        arch = ring_architecture(4)
        result = route_cyclic(block, cycles=3, architecture=arch,
                              router=SatMapRouter(time_budget=60))
        assert result.solved
        full = QuantumCircuit(4, name="full")
        for _ in range(3):
            full.extend(block.gates)
        verify_routing(full, result.routed_circuit, result.initial_mapping, arch)

    def test_prelude_gates_are_included(self):
        block = qaoa_repeated_block(4, degree=3, seed=2)
        prelude = QuantumCircuit(4)
        for qubit in range(4):
            prelude.append(Gate("h", (qubit,)))
        arch = ring_architecture(4)
        result = route_cyclic(block, cycles=2, architecture=arch,
                              router=SatMapRouter(time_budget=60), prelude=prelude)
        assert result.solved
        assert sum(1 for g in result.routed_circuit if g.name == "h") == 4

    def test_prelude_with_two_qubit_gates_rejected(self):
        block = QuantumCircuit(2, [cx(0, 1)])
        prelude = QuantumCircuit(2, [cx(0, 1)])
        with pytest.raises(ValueError):
            route_cyclic(block, 2, line_architecture(2),
                         router=SatMapRouter(time_budget=10), prelude=prelude)

    def test_rejects_zero_cycles(self):
        block = QuantumCircuit(2, [cx(0, 1)])
        with pytest.raises(ValueError):
            route_cyclic(block, 0, line_architecture(2))

    def test_router_name_gets_cyc_prefix(self):
        block = QuantumCircuit(2, [cx(0, 1)])
        result = route_cyclic(block, 2, line_architecture(2),
                              router=SatMapRouter(time_budget=10))
        assert result.router_name.startswith("CYC-")

    def test_cyclic_matches_qaoa_circuit_semantics(self):
        """Routing the block cyclically must verify against the generator's circuit."""
        num_qubits, cycles, seed = 4, 2, 7
        block = qaoa_repeated_block(num_qubits, seed=seed)
        prelude = QuantumCircuit(num_qubits)
        for qubit in range(num_qubits):
            prelude.append(Gate("h", (qubit,)))
        arch = grid_architecture(2, 2)
        result = route_cyclic(block, cycles, arch,
                              router=SatMapRouter(time_budget=60), prelude=prelude)
        assert result.solved
        # maxcut_qaoa_circuit uses per-cycle parameter names, so compare the
        # interaction sequences rather than full gate equality.
        full = maxcut_qaoa_circuit(num_qubits, cycles, seed=seed)
        routed_interactions = [g for g in result.routed_circuit if g.is_two_qubit
                               and g.name != "swap"]
        assert len(routed_interactions) == full.num_two_qubit_gates


class TestNoiseAwareRouting:
    def test_reports_fidelity_objective(self):
        arch = line_architecture(4)
        noise = NoiseModel.uniform(arch, two_qubit_error=0.02)
        circuit = QuantumCircuit(4, [cx(0, 1), cx(0, 2), cx(3, 2), cx(0, 3)])
        result = NoiseAwareSatMapRouter(noise, time_budget=60).route(circuit, arch)
        assert result.solved
        assert result.objective_value is not None
        assert 0.0 < result.objective_value < 1.0

    def test_prefers_low_error_edges(self):
        # Line of 3: two edges with very different error rates; a single CNOT
        # should be placed on the good edge.
        arch = line_architecture(3)
        noise = NoiseModel(arch, {(0, 1): 0.30, (1, 2): 0.001})
        circuit = QuantumCircuit(2, [cx(0, 1)])
        result = NoiseAwareSatMapRouter(noise, time_budget=30).route(circuit, arch)
        assert result.solved
        executed = [g for g in result.routed_circuit if g.is_two_qubit][0]
        assert set(executed.qubits) == {1, 2}

    def test_noise_aware_result_verifies(self):
        arch = line_architecture(4)
        noise = NoiseModel.synthetic(arch, seed=11)
        from repro.circuits.random_circuits import random_circuit

        circuit = random_circuit(4, 5, seed=13)
        result = NoiseAwareSatMapRouter(noise, time_budget=30).route(circuit, arch)
        assert result.solved
        verify_routing(circuit, result.routed_circuit, result.initial_mapping, arch)

    def test_status_remains_informative(self):
        arch = line_architecture(3)
        noise = NoiseModel.uniform(arch)
        circuit = QuantumCircuit(3, [cx(0, 1), cx(1, 2)])
        result = NoiseAwareSatMapRouter(noise, time_budget=30).route(circuit, arch)
        assert result.status in (RoutingStatus.OPTIMAL, RoutingStatus.FEASIBLE)


class TestFallbackBudget:
    def test_fallback_reset_respects_remaining_budget(self):
        """The fallback re-route runs within the caller's remaining time and
        restores the router's own budget afterwards (the cyclic call must
        never take ~2x its declared time_budget)."""
        from repro.core.cyclic import _route_block_with_reset

        block = QuantumCircuit(3, [cx(0, 1), cx(1, 2), cx(0, 2)])
        router = SatMapRouter(time_budget=30.0, verify=False)
        result = _route_block_with_reset(block, ring_architecture(3), router,
                                         time_budget=5.0)
        assert router.time_budget == 30.0  # restored
        assert result.solved
        assert result.final_mapping == result.initial_mapping

    def test_budget_restored_even_when_routing_fails(self):
        from repro.core.cyclic import _route_block_with_reset

        block = QuantumCircuit(3, [cx(0, 1), cx(1, 2), cx(0, 2)])
        router = SatMapRouter(time_budget=30.0, verify=False)
        # 3 qubits cannot fit a 2-qubit line: routing errors out, budget
        # must still be restored by the finally block.
        result = _route_block_with_reset(block, line_architecture(2), router,
                                         time_budget=5.0)
        assert router.time_budget == 30.0
        assert not result.solved
