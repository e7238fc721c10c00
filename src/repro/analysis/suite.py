"""Scaled experiment presets.

The paper runs 160 circuits (up to 200k+ two-qubit gates) against the 20-qubit
IBM Tokyo device with 30-60 minute timeouts on a cluster.  A pure-Python SAT
stack cannot match Open-WBO's raw throughput, so the benchmark harness uses
the presets below: smaller circuit suites, reduced architectures that keep the
Tokyo structure (grid plus alternating diagonals), and second-scale budgets.
The *relative* comparisons -- who solves more, who needs fewer SWAPs, how the
relaxations trade quality for scalability -- are what the experiments
reproduce; absolute numbers differ from the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.library import BenchmarkCircuit, named_benchmarks
from repro.circuits.qaoa import maxcut_qaoa_circuit, qaoa_repeated_block
from repro.circuits.random_circuits import random_circuit
from repro.hardware.architecture import Architecture
from repro.hardware.topologies import (
    _grid_edges,
    _tokyo_diagonals,
    reduced_tokyo_architecture,
)


@dataclass(frozen=True)
class QaoaInstance:
    """One row of the Table IV workload: a QAOA circuit plus its repeated block."""

    num_qubits: int
    cycles: int
    circuit: object
    block: object
    prelude: object


def tiny_suite(seed: int = 23) -> list[BenchmarkCircuit]:
    """A dozen small circuits (3-5 qubits, 5-24 two-qubit gates).

    Sized so the full Q1/Q2 comparison -- five routers per circuit -- finishes
    in a couple of minutes of pytest-benchmark time.
    """
    specs = [
        ("tiny_00_q3_g5", 3, 5), ("tiny_01_q3_g8", 3, 8), ("tiny_02_q3_g11", 3, 11),
        ("tiny_03_q4_g9", 4, 9), ("tiny_04_q4_g13", 4, 13), ("tiny_05_q4_g17", 4, 17),
        ("tiny_06_q5_g10", 5, 10), ("tiny_07_q5_g14", 5, 14), ("tiny_08_q5_g18", 5, 18),
        ("tiny_09_q5_g21", 5, 21), ("tiny_10_q4_g24", 4, 24), ("tiny_11_q5_g24", 5, 24),
    ]
    suite = []
    for index, (name, qubits, gates) in enumerate(specs):
        circuit = random_circuit(qubits, gates, seed=seed + index,
                                 interaction_bias=0.5, name=name)
        suite.append(BenchmarkCircuit(name, qubits, gates, circuit))
    return suite


def small_suite(seed: int = 29) -> list[BenchmarkCircuit]:
    """A larger spread (up to 6 qubits / 60 two-qubit gates) for scaling studies."""
    suite = list(tiny_suite(seed=seed))
    extra = [
        ("small_00_q5_g30", 5, 30), ("small_01_q5_g36", 5, 36),
        ("small_02_q6_g30", 6, 30), ("small_03_q6_g40", 6, 40),
        ("small_04_q6_g50", 6, 50), ("small_05_q6_g60", 6, 60),
    ]
    for index, (name, qubits, gates) in enumerate(extra):
        circuit = random_circuit(qubits, gates, seed=seed + 100 + index,
                                 interaction_bias=0.5, name=name)
        suite.append(BenchmarkCircuit(name, qubits, gates, circuit))
    return suite


def named_small_suite(max_two_qubit_gates: int = 40) -> list[BenchmarkCircuit]:
    """The named RevLib-sized benchmarks small enough for constraint tools."""
    return named_benchmarks(max_two_qubit_gates=max_two_qubit_gates)


def qaoa_suite(qubit_counts: tuple[int, ...] = (4, 6, 8),
               cycle_counts: tuple[int, ...] = (2, 4),
               seed: int = 5) -> list[QaoaInstance]:
    """Scaled-down Table IV workload (the paper uses 6-16 qubits)."""
    from repro.circuits.circuit import QuantumCircuit
    from repro.circuits.gates import Gate

    instances = []
    for num_qubits in qubit_counts:
        block = qaoa_repeated_block(num_qubits, degree=3, seed=seed)
        prelude = QuantumCircuit(num_qubits, name="hadamard_prelude")
        for qubit in range(num_qubits):
            prelude.append(Gate("h", (qubit,)))
        for cycles in cycle_counts:
            circuit = maxcut_qaoa_circuit(num_qubits, cycles, degree=3, seed=seed)
            instances.append(QaoaInstance(num_qubits, cycles, circuit, block, prelude))
    return instances


def default_architecture(num_qubits: int = 8) -> Architecture:
    """Reduced Tokyo subgraph: the standard scaled target architecture."""
    return reduced_tokyo_architecture(num_qubits)


def mini_tokyo_family(rows: int = 2, columns: int = 4) -> tuple[Architecture, Architecture, Architecture]:
    """Scaled-down (Tokyo-, Tokyo, Tokyo+) triple for the Q4 experiment.

    The three graphs share the same grid skeleton; the middle one adds one
    alternating diagonal per grid cell and the dense one adds both, so -- like
    the real family in Fig. 9 -- the middle graph's average degree is exactly
    halfway between the sparse and dense variants.
    """
    grid = _grid_edges(rows, columns)
    sparse = Architecture(rows * columns, list(grid), name=f"mini-tokyo-minus-{rows}x{columns}")

    medium = Architecture(rows * columns,
                          grid + _tokyo_diagonals(False, rows, columns),
                          name=f"mini-tokyo-{rows}x{columns}")
    dense = Architecture(rows * columns,
                         grid + _tokyo_diagonals(True, rows, columns),
                         name=f"mini-tokyo-plus-{rows}x{columns}")
    return sparse, medium, dense


def suite_sizes(suite: list[BenchmarkCircuit]) -> dict[str, int]:
    """Circuit name -> two-qubit gate count, for solve-rate summaries."""
    return {bench.name: bench.num_two_qubit_gates for bench in suite}
