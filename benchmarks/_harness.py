"""Shared helpers for the benchmark suite.

Each ``bench_*.py`` file regenerates one table or figure from the paper's
evaluation (Section VII) on the scaled suites described in
``repro.analysis.suite``.  Results are printed and also written to
``benchmarks/results/<name>.txt`` so they survive pytest's output capture.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Per-instance time budget (seconds) for constraint-based tools.  The paper
#: uses 1800 s per instance on a cluster; the scaled experiments use a few
#: seconds per instance so the full harness stays laptop-sized.
CONSTRAINT_BUDGET = 5.0
#: Budget for the anytime SATMAP configurations.
SATMAP_BUDGET = 5.0
#: Budget for heuristic tools (they are far from the limit in practice).
HEURISTIC_BUDGET = 30.0


def save_report(name: str, text: str) -> None:
    """Print a report and persist it under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def run_once(benchmark, function):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, rounds=1, iterations=1)
