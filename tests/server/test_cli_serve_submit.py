"""The ``serve`` and ``submit`` CLI subcommands."""

from __future__ import annotations

import json

import pytest

from repro.circuits.qasm import load_qasm
from repro.cli import build_parser, main, serve_config
from repro.cluster.worker import build_worker_gateway

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


class TestParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8037
        assert args.time_budget == 10.0
        assert args.rate == 20.0
        assert args.max_pending == 256
        assert not args.no_cache

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "x.qasm"])
        assert args.url == "http://127.0.0.1:8037"
        assert args.router == "satmap"
        assert not args.no_wait

    def test_submit_rejects_bad_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "x.qasm",
                                       "--router", "no-such"])

    def test_serve_rejects_bad_budget(self, capsys):
        assert main(["serve", "--time-budget", "-1"]) == 2
        assert "positive" in capsys.readouterr().err


class TestServeAssembly:
    def test_single_worker_gateway_carries_the_flags(self, tmp_path):
        args = build_parser().parse_args([
            "serve", "--host", "0.0.0.0", "--port", "9123",
            "--time-budget", "7", "--mode", "serial",
            "--cache-dir", str(tmp_path / "cache"),
            "--rate", "3", "--burst", "7", "--max-pending", "11",
            "--trace-dir", str(tmp_path / "traces"),
            "--events-dir", str(tmp_path / "events"),
            "--trace-sample", "0.25", "--slow-trace-ms", "1500",
            "--slo", "satmap:p99<5@0.995", "--slo", "p90<2"])
        gateway = build_worker_gateway(serve_config(args))
        try:
            assert (gateway.host, gateway.port) == ("0.0.0.0", 9123)
            assert gateway.time_budget == 7.0
            admission = gateway.admission
            assert (admission.rate, admission.burst,
                    admission.max_pending) == (3.0, 7.0, 11)
            assert gateway.sampler.rate == 0.25
            assert gateway.sampler.slow_threshold == 1.5
            assert [(objective.route, objective.quantile,
                     objective.latency_target, objective.availability_target)
                    for objective in gateway.slo.objectives] == [
                ("satmap", 0.99, 5.0, 0.995), ("*", 0.9, 2.0, 0.99)]
            # A single process tags none of its files with a shard id.
            assert gateway._trace_writer.path == tmp_path / "traces" / \
                "traces.jsonl"
            assert gateway.event_log.path == tmp_path / "events" / \
                "events.jsonl"
            assert gateway.service.cache.directory == tmp_path / "cache"
            assert gateway.service.cache.owner is None
        finally:
            gateway.service.close()

    def test_a_fleet_shard_binds_loopback_with_open_admission(self, tmp_path):
        args = build_parser().parse_args([
            "serve", "--workers", "2", "--host", "0.0.0.0", "--rate", "3",
            "--max-pending", "11", "--cache-dir", str(tmp_path / "cache"),
            "--trace-dir", str(tmp_path / "traces")])
        gateway = build_worker_gateway(serve_config(args), shard_id=1)
        try:
            assert (gateway.host, gateway.port) == ("127.0.0.1", 0)
            assert gateway.admission.rate == 1e9
            assert gateway.admission.max_pending == 11
            assert gateway._trace_writer.path.name == "traces.shard-1.jsonl"
            assert gateway.service.cache.owner == "shard-1"
        finally:
            gateway.service.close()


class TestSubmitCommand:
    def test_submit_waits_and_writes_output(self, gateway, qasm_file,
                                            tmp_path, capsys):
        routed = tmp_path / "routed.qasm"
        argv = ["submit", str(qasm_file), "--url", gateway.url,
                "--arch", "tokyo6", "--router", "sabre:seed=0",
                "--output", str(routed), "--client-id", "cli-test"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "SABRE" in out
        assert routed.exists()
        load_qasm(routed)  # parses back

    def test_submit_json_record(self, gateway, qasm_file, capsys):
        argv = ["submit", str(qasm_file), "--url", gateway.url,
                "--arch", "tokyo6", "--router", "sabre:seed=0", "--json"]
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["solved"] is True
        assert record["router"] == "SABRE"
        assert record["deduplicated"] is False
        assert record["server"] == gateway.url

    def test_submit_no_wait_prints_ticket(self, gateway, qasm_file, capsys):
        argv = ["submit", str(qasm_file), "--url", gateway.url,
                "--arch", "tokyo6", "--router", "sabre:seed=0",
                "--no-wait", "--json"]
        assert main(argv) == 0
        ticket = json.loads(capsys.readouterr().out)
        assert ticket["status"] in ("queued", "running", "done")
        assert len(ticket["job_id"]) == 64

    def test_submit_against_dead_server_fails_cleanly(self, qasm_file, capsys):
        argv = ["submit", str(qasm_file), "--url", "http://127.0.0.1:1",
                "--arch", "tokyo6"]
        assert main(argv) == 2
        assert "cannot submit" in capsys.readouterr().err
