"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import available_architectures, build_parser, main
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import cx, h
from repro.circuits.qasm import load_qasm, save_qasm
from repro.circuits.random_circuits import random_circuit
from repro.core import verify_routing

QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
cx q[0],q[2];
cx q[3],q[2];
cx q[0],q[3];
"""


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "prog.qasm"
    path.write_text(QASM)
    return path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_route_defaults(self, qasm_file):
        args = build_parser().parse_args(["route", str(qasm_file)])
        assert args.arch == "tokyo"
        assert args.slice_size == 25

    def test_unknown_architecture_rejected(self, qasm_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", str(qasm_file), "--arch", "mars"])

    @pytest.mark.parametrize("argv", [["route", "x.qasm", "--from-scratch"],
                                      ["bench-service"]])
    def test_removed_flags_and_commands_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_architecture_catalogue_is_consistent(self):
        catalogue = available_architectures()
        assert "tokyo" in catalogue and "tokyo+" in catalogue
        for name, architecture in catalogue.items():
            assert architecture.num_qubits > 0, name


class TestRouteCommand:
    def test_route_writes_verified_output(self, qasm_file):
        exit_code = main(["route", str(qasm_file), "--arch", "tokyo8",
                          "--time-budget", "20"])
        assert exit_code == 0
        output = qasm_file.with_suffix(".routed.qasm")
        assert output.exists()
        routed = load_qasm(output)
        assert routed.num_qubits == 8

    def test_route_to_explicit_output(self, qasm_file, tmp_path):
        target = tmp_path / "custom.qasm"
        exit_code = main(["route", str(qasm_file), "--arch", "line8",
                          "--time-budget", "20", "--output", str(target)])
        assert exit_code == 0
        assert target.exists()

    def test_route_disable_slicing(self, qasm_file):
        exit_code = main(["route", str(qasm_file), "--arch", "tokyo8",
                          "--slice-size", "0", "--time-budget", "20"])
        assert exit_code == 0


class TestBudgetValidation:
    @pytest.mark.parametrize("command", ["route", "compare"])
    @pytest.mark.parametrize("budget", ["0", "-1", "nan", "inf"])
    def test_non_positive_budget_is_a_usage_error(self, command, budget,
                                                  qasm_file, capsys):
        argv = [command, str(qasm_file), "--time-budget", budget]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: --time-budget must be positive and finite\n")


class TestInfoAndCompare:
    def test_info_prints_table(self, capsys):
        assert main(["info", "--arch", "tokyo"]) == 0
        output = capsys.readouterr().out
        assert "physical qubits" in output and "20" in output

    def test_compare_on_single_file(self, qasm_file, capsys):
        exit_code = main(["compare", str(qasm_file), "--arch", "tokyo8",
                          "--time-budget", "10"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "SATMAP" in output and "SABRE" in output


class TestRoundTripThroughCli:
    def test_routed_file_reparses_and_counts_match(self, tmp_path):
        circuit = QuantumCircuit(4, [h(0), cx(0, 1), cx(1, 2), cx(2, 3), cx(3, 0)],
                                 name="ring_interactions")
        source = tmp_path / "ring.qasm"
        save_qasm(circuit, source)
        assert main(["route", str(source), "--arch", "grid3x3",
                     "--time-budget", "20"]) == 0
        routed = load_qasm(source.with_suffix(".routed.qasm"))
        non_swap_two_qubit = sum(1 for gate in routed
                                 if gate.is_two_qubit and gate.name != "swap")
        assert non_swap_two_qubit == circuit.num_two_qubit_gates

    def test_cyclic_route_writes_the_repeated_circuit(self, tmp_path, capsys):
        # The router verifies the N-fold circuit itself; the command must not
        # re-verify the written output against the one-cycle input.
        circuit = random_circuit(5, 20, seed=3)
        source = tmp_path / "block.qasm"
        save_qasm(circuit, source)
        assert main(["route", str(source), "--arch", "tokyo8", "--json",
                     "--router", "cyclic:cycles=3,time_budget=10"]) == 0
        report = json.loads(capsys.readouterr().out)
        initial = {int(logical): physical
                   for logical, physical in report["initial_mapping"].items()}
        repeated = QuantumCircuit(circuit.num_qubits)
        for _ in range(3):
            repeated.extend(load_qasm(source))
        routed = load_qasm(source.with_suffix(".routed.qasm"))
        assert verify_routing(repeated, routed, initial,
                              available_architectures()["tokyo8"]) \
            == report["swap_count"]
