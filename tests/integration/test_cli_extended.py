"""Tests for the newer CLI subcommands (devices, draw, generate, --router)."""

import pytest

from repro.api import get_router, list_routers
from repro.cli import available_architectures, main
from repro.circuits.qasm import load_qasm


@pytest.fixture
def ghz_qasm(tmp_path):
    path = tmp_path / "ghz.qasm"
    exit_code = main(["generate", "ghz", str(path), "--qubits", "4"])
    assert exit_code == 0
    return path


class TestGenerate:
    @pytest.mark.parametrize("kind,extra", [
        ("qft", ["--qubits", "4"]),
        ("ghz", ["--qubits", "5"]),
        ("qaoa", ["--qubits", "6", "--cycles", "1"]),
        ("random", ["--qubits", "4", "--gates", "10", "--seed", "3"]),
    ])
    def test_generate_writes_loadable_qasm(self, tmp_path, kind, extra, capsys):
        path = tmp_path / f"{kind}.qasm"
        assert main(["generate", kind, str(path), *extra]) == 0
        circuit = load_qasm(path)
        assert circuit.num_qubits >= 4
        output = capsys.readouterr().out
        assert "written to" in output

    def test_generated_random_circuit_is_deterministic(self, tmp_path):
        first = tmp_path / "a.qasm"
        second = tmp_path / "b.qasm"
        main(["generate", "random", str(first), "--seed", "7"])
        main(["generate", "random", str(second), "--seed", "7"])
        assert first.read_text() == second.read_text()


class TestDraw:
    def test_draw_prints_wires(self, ghz_qasm, capsys):
        assert main(["draw", str(ghz_qasm)]) == 0
        output = capsys.readouterr().out
        assert "q0:" in output
        assert "qubits" in output

    def test_draw_ascii_mode(self, ghz_qasm, capsys):
        assert main(["draw", str(ghz_qasm), "--ascii"]) == 0
        output = capsys.readouterr().out
        assert all(ord(char) < 128 for char in output)


class TestDevices:
    def test_devices_lists_catalogue(self, capsys):
        assert main(["devices"]) == 0
        output = capsys.readouterr().out
        assert "tokyo" in output
        assert "melbourne" in output
        assert "diameter" in output


class TestRouteWithRouterChoice:
    @pytest.mark.parametrize("router", ["sabre", "naive", "hybrid"])
    def test_route_with_alternative_router(self, ghz_qasm, router, capsys):
        exit_code = main(["route", str(ghz_qasm), "--arch", "line8",
                          "--router", router, "--time-budget", "20"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "routed circuit written to" in output
        routed = load_qasm(ghz_qasm.with_suffix(".routed.qasm"))
        assert routed.num_two_qubit_gates >= 3

    def test_catalogue_architecture_usable_for_routing(self, ghz_qasm):
        exit_code = main(["route", str(ghz_qasm), "--arch", "yorktown",
                          "--router", "sabre", "--time-budget", "20"])
        assert exit_code == 0


class TestRegistries:
    def test_available_architectures_include_catalogue(self):
        names = available_architectures()
        assert "yorktown" in names
        assert "guadalupe" in names
        assert "tokyo" in names

    def test_available_routers_construct(self):
        for name in list_routers():
            router = get_router(name, time_budget=5.0)
            assert hasattr(router, "route"), name
            assert router.time_budget == 5.0, name
