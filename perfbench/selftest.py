"""Self-tests of the benchmark's own logic (no timing, no native core needed).

Run from the repository root::

    python3 perfbench/selftest.py            # these checks
    python3 perfbench/selftest.py --smoke    # plus run.py --smoke (minutes)

The file is deliberately not named ``test_*.py``: the repository's tier-1
``pytest`` run does not collect it, but ``python3 -m pytest
perfbench/selftest.py`` runs the same functions.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import stats  # noqa: E402
from repro.circuits.circuit import QuantumCircuit  # noqa: E402
from repro.core.result import RoutingResult, RoutingStatus  # noqa: E402
from repro.hardware.topologies import line_architecture  # noqa: E402


def test_tail_needs_ten_samples_beyond() -> None:
    cases = {5: 50.0, 19: 50.0, 20: 50.0, 39: 50.0, 40: 75.0, 99: 75.0,
             100: 90.0, 200: 95.0, 999: 95.0, 1000: 99.0, 10_000: 99.9}
    for count, expected in cases.items():
        values = list(range(count))
        value, pct, samples = stats.tail(values)
        assert (pct, samples) == (expected, count), (count, pct)
        beyond = sum(1 for sample in values if sample > value)
        if pct != 50.0:
            assert beyond >= stats.MIN_BEYOND, (count, beyond)
    assert stats.tail([3.0, 1.0, 2.0])[0] == 2.0  # too few: the median


def _line_case():
    """cx(0, 2) on a 3-qubit line: one SWAP is needed."""
    original = QuantumCircuit(3, name="needs_swap")
    original.append_op("h", (0,))
    original.append_op("cx", (0, 2))
    original.append_op("cx", (1, 2))
    arch = line_architecture(3)
    routed = QuantumCircuit(3, name="routed")
    routed.append_op("h", (0,))
    routed.append_op("swap", (1, 2))  # logical 2 -> physical 1
    routed.append_op("cx", (0, 1))
    routed.append_op("cx", (2, 1))
    return original, arch, routed


def _result(routed, swaps: int, status=RoutingStatus.FEASIBLE, notes=""):
    return RoutingResult(status=status, router_name="test",
                         initial_mapping={0: 0, 1: 1, 2: 2},
                         routed_circuit=routed, swap_count=swaps, notes=notes)


def test_checker_accepts_valid_routing() -> None:
    original, arch, routed = _line_case()
    verdict = checker.judge(_result(routed, 1), original, arch, {"best": 1})
    assert verdict.ok and verdict.swaps == 1, verdict


def test_checker_rejects_dropped_swap() -> None:
    original, arch, routed = _line_case()
    dropped = QuantumCircuit(3, name="dropped")
    for name, qubits, params in routed.iter_ops():
        if name != "swap":
            dropped.append_op(name, qubits, params)
    for reported in (0, 1):
        verdict = checker.judge(_result(dropped, reported), original, arch, {})
        assert not verdict.ok and verdict.reason == "checker", verdict


def test_checker_rejects_reordered_gates() -> None:
    original, arch, _ = _line_case()
    swapped = QuantumCircuit(3, name="reordered")
    swapped.append_op("h", (0,))
    swapped.append_op("swap", (1, 2))
    swapped.append_op("cx", (2, 1))  # cx(1, 2) ahead of cx(0, 2)
    swapped.append_op("cx", (0, 1))
    verdict = checker.judge(_result(swapped, 1), original, arch, {})
    assert not verdict.ok and verdict.reason == "checker", verdict


def test_wrong_optimal_claim_fails_without_aborting() -> None:
    original, arch, routed = _line_case()
    detour = QuantumCircuit(3, name="detour")
    detour.append_op("h", (0,))
    detour.append_op("swap", (0, 1))
    detour.append_op("swap", (0, 1))
    for name, qubits, params in list(routed.iter_ops())[1:]:
        detour.append_op(name, qubits, params)
    claim = _result(detour, 3, status=RoutingStatus.OPTIMAL)
    verdict = checker.judge(claim, original, arch, {"optimum": 1, "best": 1})
    assert not verdict.ok and verdict.reason == "wrong-optimal", verdict
    assert verdict.valid and verdict.swaps == 3
    bound = checker.judge(claim, original, arch, {"bound": 2, "best": 2})
    assert bound.reason == "wrong-optimal", bound
    honest = checker.judge(_result(routed, 1, status=RoutingStatus.OPTIMAL),
                           original, arch, {"optimum": 1, "best": 1})
    assert honest.ok and honest.optimal_match, honest


def test_fallback_and_unsolved_count_as_failures() -> None:
    original, arch, routed = _line_case()
    rescued = _result(routed, 1, notes="fallback=naive after satmap timeout")
    assert checker.judge(rescued, original, arch, {}).reason == "fallback"
    timeout = RoutingResult(status=RoutingStatus.TIMEOUT, router_name="test")
    assert checker.judge(timeout, original, arch, {}).reason == "unsolved"
    assert checker.judge(None, original, arch, {}, error="boom").reason == "error"


def main(argv: list[str]) -> int:
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_") and callable(value)]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    if "--smoke" in argv:
        return subprocess.call([sys.executable, str(HERE / "run.py"), "--smoke"],
                               cwd=HERE.parent)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
