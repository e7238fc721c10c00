"""The ``batch`` CLI subcommand."""

from __future__ import annotations

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
def qasm_files(tmp_path):
    paths = []
    for index in range(2):
        path = tmp_path / f"prog{index}.qasm"
        path.write_text(QASM)
        paths.append(path)
    return paths


class TestBatchParser:
    def test_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.arch == "tokyo8"
        assert args.router == "satmap"
        assert not args.portfolio

    def test_rejects_unknown_router(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--router", "no-such"])


class TestBatchCommand:
    def test_batch_of_files_routes_and_caches(self, qasm_files, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["batch", *map(str, qasm_files), "--arch", "tokyo6",
                "--router", "sabre", "--mode", "serial",
                "--cache-dir", str(cache_dir), "--quiet"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "solved 2/2 jobs" in out
        # identical circuits dedup to one computed job + one cache hit
        assert len(list(cache_dir.glob("*.json"))) == 1

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: 2 hits / 0 misses" in out

    def test_batch_builtin_suite(self, capsys):
        argv = ["batch", "--arch", "tokyo6", "--router", "naive",
                "--mode", "serial", "--suite-size", "3", "--no-cache", "--quiet"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Batch of 3 jobs" in out
        assert "solved 3/3 jobs" in out

    def test_batch_progress_lines(self, capsys):
        argv = ["batch", "--arch", "tokyo6", "--router", "naive",
                "--mode", "serial", "--suite-size", "2", "--no-cache"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[  1/2]" in out and "[  2/2]" in out

    def test_batch_portfolio(self, capsys):
        argv = ["batch", "--arch", "tokyo6", "--router", "sabre",
                "--mode", "serial", "--suite-size", "2", "--no-cache",
                "--portfolio", "--quiet", "--time-budget", "5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "solved 2/2 jobs" in out

