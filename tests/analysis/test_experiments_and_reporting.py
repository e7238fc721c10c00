"""Tests for the experiment harness, the scaled suites, and reporting."""

import math

import pytest

from repro.analysis.experiments import (
    ExperimentRecord,
    SuiteComparison,
    run_many_routers,
    run_router_on_suite,
)
from repro.analysis.reporting import (
    render_cost_ratio_summary,
    render_records_table,
    render_solve_rate_table,
    render_table,
)
from repro.analysis.suite import (
    default_architecture,
    mini_tokyo_family,
    named_small_suite,
    qaoa_suite,
    small_suite,
    suite_sizes,
    tiny_suite,
)
from repro.baselines import SabreRouter
from repro.circuits.library import BenchmarkCircuit
from repro.circuits.random_circuits import random_circuit
from repro.core import SatMapRouter
from repro.core.result import RoutingResult, RoutingStatus
from repro.hardware.topologies import (
    grid_architecture,
    tokyo_architecture,
    tokyo_minus_architecture,
    tokyo_plus_architecture,
)


class TestSuites:
    def test_tiny_suite_shape(self):
        suite = tiny_suite()
        assert len(suite) == 12
        assert all(3 <= bench.num_qubits <= 5 for bench in suite)
        assert all(bench.circuit.num_two_qubit_gates == bench.num_two_qubit_gates
                   for bench in suite)

    def test_small_suite_extends_tiny(self):
        assert len(small_suite()) > len(tiny_suite())

    def test_named_small_suite_respects_bound(self):
        assert all(bench.num_two_qubit_gates <= 40 for bench in named_small_suite(40))

    def test_qaoa_suite_rows(self):
        instances = qaoa_suite(qubit_counts=(4, 6), cycle_counts=(2,))
        assert len(instances) == 2
        for instance in instances:
            assert instance.circuit.num_two_qubit_gates == (
                instance.cycles * instance.block.num_two_qubit_gates)

    def test_default_architecture(self):
        arch = default_architecture(8)
        assert arch.num_qubits == 8 and arch.is_connected()

    def test_mini_tokyo_family_degree_halfway(self):
        sparse, medium, dense = mini_tokyo_family()
        assert medium.average_degree == pytest.approx(
            (sparse.average_degree + dense.average_degree) / 2)

    def test_mini_tokyo_family_at_full_size_is_the_tokyo_family(self):
        family = mini_tokyo_family(4, 5)
        reference = (tokyo_minus_architecture(), tokyo_architecture(),
                     tokyo_plus_architecture())
        for mini, device in zip(family, reference):
            assert mini.num_qubits == device.num_qubits
            assert mini.edges == device.edges

    def test_suite_sizes_lookup(self):
        suite = tiny_suite()
        sizes = suite_sizes(suite)
        assert sizes[suite[0].name] == suite[0].num_two_qubit_gates


class TestExperimentHarness:
    def _mini_suite(self):
        return [
            BenchmarkCircuit("mini_a", 4, 6, random_circuit(4, 6, seed=1, name="mini_a")),
            BenchmarkCircuit("mini_b", 4, 8, random_circuit(4, 8, seed=2, name="mini_b")),
        ]

    def test_run_router_on_suite(self):
        records = run_router_on_suite(lambda: SabreRouter(), self._mini_suite(),
                                      grid_architecture(2, 2))
        assert len(records) == 2
        assert all(record.solved for record in records)
        assert all(record.router == "SABRE" for record in records)

    def test_run_many_routers_builds_comparison(self):
        comparison = run_many_routers(
            {"SABRE": lambda: SabreRouter(),
             "NL-SATMAP": lambda: SatMapRouter(time_budget=30)},
            self._mini_suite(), grid_architecture(2, 2))
        assert set(comparison.routers()) == {"SABRE", "NL-SATMAP"}
        assert comparison.solved_count("SABRE") == 2

    def test_cost_ratio_computation(self):
        comparison = SuiteComparison()
        bench = self._mini_suite()[0]
        sabre = RoutingResult(RoutingStatus.FEASIBLE, "SABRE", circuit_name=bench.name,
                              swap_count=4)
        satmap = RoutingResult(RoutingStatus.OPTIMAL, "SATMAP", circuit_name=bench.name,
                               swap_count=2)
        comparison.add(ExperimentRecord.from_result(sabre, bench))
        comparison.add(ExperimentRecord.from_result(satmap, bench))
        ratios = comparison.cost_ratios("SABRE", "SATMAP")
        assert ratios == [2.0]
        assert comparison.mean_cost_ratio("SABRE", "SATMAP") == pytest.approx(2.0)

    def test_unsolved_records_are_excluded_from_ratios(self):
        comparison = SuiteComparison()
        bench = self._mini_suite()[0]
        timeout = RoutingResult(RoutingStatus.TIMEOUT, "SLOW", circuit_name=bench.name)
        solved = RoutingResult(RoutingStatus.OPTIMAL, "SATMAP", circuit_name=bench.name,
                               swap_count=1)
        comparison.add(ExperimentRecord.from_result(timeout, bench))
        comparison.add(ExperimentRecord.from_result(solved, bench))
        assert comparison.cost_ratios("SLOW", "SATMAP") == []

    def test_largest_solved_and_mean_time(self):
        comparison = SuiteComparison()
        for name, gates, solved in (("a", 10, True), ("b", 50, True), ("c", 90, False)):
            bench = BenchmarkCircuit(name, 4, gates, random_circuit(4, 5, seed=3))
            status = RoutingStatus.OPTIMAL if solved else RoutingStatus.TIMEOUT
            record = ExperimentRecord.from_result(
                RoutingResult(status, "T", circuit_name=name, solve_time=2.0), bench)
            comparison.add(record)
        assert comparison.largest_solved("T") == 50
        assert comparison.solved_count("T") == 2
        assert comparison.mean_time("T") == pytest.approx(2.0)

    def test_mean_time_of_unknown_router_is_nan(self):
        assert math.isnan(SuiteComparison().mean_time("nobody"))


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["xyz", 3]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "2.50" in text

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_render_solve_rate_table(self):
        comparison = SuiteComparison()
        bench = BenchmarkCircuit("x", 4, 12, random_circuit(4, 5, seed=4))
        comparison.add(ExperimentRecord.from_result(
            RoutingResult(RoutingStatus.OPTIMAL, "SATMAP", circuit_name="x"), bench))
        text = render_solve_rate_table(comparison, total=1)
        assert "SATMAP" in text and "1/1" in text

    def test_render_cost_ratio_summary(self):
        comparison = SuiteComparison()
        bench = BenchmarkCircuit("x", 4, 12, random_circuit(4, 5, seed=4))
        for router, swaps in (("SABRE", 6), ("SATMAP", 2)):
            comparison.add(ExperimentRecord.from_result(
                RoutingResult(RoutingStatus.OPTIMAL, router, circuit_name="x",
                              swap_count=swaps), bench))
        text = render_cost_ratio_summary(comparison, "SATMAP", ["SABRE"])
        assert "SABRE" in text and "3.00" in text

    def test_render_records_table_lists_all_rows(self):
        comparison = SuiteComparison()
        bench = BenchmarkCircuit("x", 4, 12, random_circuit(4, 5, seed=4))
        comparison.add(ExperimentRecord.from_result(
            RoutingResult(RoutingStatus.OPTIMAL, "A", circuit_name="x"), bench))
        comparison.add(ExperimentRecord.from_result(
            RoutingResult(RoutingStatus.TIMEOUT, "B", circuit_name="x"), bench))
        text = render_records_table(comparison)
        assert text.count("\n") >= 3
