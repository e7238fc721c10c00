"""Scriptable CLI: ``--json`` output and spec strings for ``--router``."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
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


class TestRouteJson:
    def test_route_json_is_machine_readable(self, qasm_file, capsys):
        code = main(["route", str(qasm_file), "--arch", "tokyo6",
                     "--router", "sabre:seed=1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solved"] is True
        assert payload["router"] == "SABRE"
        assert payload["architecture"] == "tokyo-6"
        assert payload["spec"]["router"] == "sabre"
        assert payload["spec"]["options"]["seed"] == 1
        assert payload["output"].endswith(".routed.qasm")
        assert isinstance(payload["initial_mapping"], dict)

    def test_route_json_failure_reports_status(self, tmp_path, capsys):
        big = tmp_path / "big.qasm"
        big.write_text("OPENQASM 2.0;\nqreg q[9];\ncx q[0],q[8];\n")
        code = main(["route", str(big), "--arch", "line8",
                     "--router", "naive", "--json"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["solved"] is False
        assert payload["swap_count"] is None

    def test_spec_options_flow_into_the_router(self, qasm_file, capsys):
        code = main(["route", str(qasm_file), "--arch", "tokyo6",
                     "--router", "satmap:slice_size=none,time_budget=10",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["router"] == "NL-SATMAP"
        assert payload["spec"]["options"]["slice_size"] is None

    def test_unknown_router_spec_is_a_usage_error(self, qasm_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", str(qasm_file),
                                       "--router", "no-such"])

    def test_unknown_option_is_a_usage_error(self, qasm_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", str(qasm_file),
                                       "--router", "satmap:slize_size=9"])

    @pytest.mark.parametrize("router", ["satmap:slice_size=0",
                                        "satmap:swaps_per_gate=0",
                                        "satmap:time_budget=nan"])
    def test_a_value_the_router_refuses_is_a_usage_error(self, qasm_file,
                                                          router, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["route", str(qasm_file),
                                       "--router", router])
        assert excinfo.value.code == 2
        assert router.split(":")[1].split("=")[0] in capsys.readouterr().err


class TestCompareJson:
    def test_compare_json_records(self, qasm_file, capsys):
        code = main(["compare", str(qasm_file), "--arch", "tokyo6",
                     "--time-budget", "5", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["architecture"] == "tokyo-6"
        routers = {record["router"] for record in payload["records"]}
        assert "SATMAP" in routers and "SABRE" in routers
        for record in payload["records"]:
            assert {"router", "circuit", "solved", "swap_count",
                    "solve_time"} <= set(record)


class TestRoutersListing:
    def test_routers_table_lists_registry(self, capsys):
        assert main(["routers"]) == 0
        out = capsys.readouterr().out
        for name in ("satmap", "sabre", "noise-satmap", "cyclic"):
            assert name in out
        assert "noise_aware" in out

    def test_routers_json_has_schemas(self, capsys):
        assert main(["routers", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in entries}
        assert "optimal" in by_name["satmap"]["capabilities"]
        option_names = {option["name"] for option in by_name["satmap"]["options"]}
        assert {"slice_size", "time_budget", "verify"} <= option_names

    def test_routers_capability_filter(self, capsys):
        assert main(["routers", "--capability", "noise_aware", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in entries] == ["noise-satmap"]

    def test_routers_single_entry_schema(self, capsys):
        assert main(["routers", "sabre"]) == 0
        out = capsys.readouterr().out
        assert "lookahead_size" in out and "capabilities" in out

    def test_routers_unknown_name_errors(self, capsys):
        assert main(["routers", "no-such"]) == 2

    def test_devices_mentions_routers(self, capsys):
        assert main(["devices"]) == 0
        assert "repro routers" in capsys.readouterr().out


class TestBatchSpecStrings:
    def test_batch_accepts_spec_strings(self, qasm_file, capsys):
        code = main(["batch", str(qasm_file), "--arch", "tokyo6",
                     "--router", "naive:smart_initial_mapping=true",
                     "--mode", "serial", "--no-cache", "--quiet"])
        assert code == 0
        assert "solved 1/1" in capsys.readouterr().out
