"""End-to-end trace smoke: service -> pool -> SAT core span trees.

This is the test behind the CI smoke gate: one routed job must produce a
single trace tree whose spans cover queue wait, encoding, solving, and
extraction, nest child-within-parent, and carry SAT counters on the solve
span -- through both the serial path and a real process pool.
"""

from __future__ import annotations

import pytest

from repro.circuits.random_circuits import random_circuit
from repro.hardware.devices import named_architectures
from repro.obs import find_span, span_names, validate_trace
from repro.service import BatchRoutingService, RoutingJob

REQUIRED_SPANS = ("queue-wait", "encode", "solve", "extract", "verify")


def small_job() -> RoutingJob:
    circuit = random_circuit(num_qubits=3, num_two_qubit_gates=5, seed=7,
                             name="trace-smoke")
    return RoutingJob.from_circuit(circuit, named_architectures()["line8"],
                                   router="satmap")


def assert_complete_tree(tree: dict) -> None:
    assert tree is not None, "routed job produced no trace"
    names = span_names(tree)
    for name in REQUIRED_SPANS:
        assert name in names, f"span {name!r} missing from {names}"
    assert validate_trace(tree) == []
    solve = find_span(tree, "solve")
    attrs = solve["attributes"]
    assert attrs.get("status") is not None
    for counter in ("conflicts", "propagations", "restarts"):
        assert counter in attrs, f"solve span lacks SAT counter {counter!r}"


class TestServiceTraces:
    def test_serial_route_produces_a_complete_trace(self):
        with BatchRoutingService(mode="serial", cache=False,
                                 time_budget=10.0) as service:
            [result] = service.route_batch([small_job()])
        assert result.solved
        assert_complete_tree(result.trace)
        assert result.solver_stats.get("propagations", 0) > 0
        # The finished tree is also retained on the service tracer.
        root = service.tracer.latest("job")
        assert root is not None and root.finished

    def test_process_pool_trace_crosses_the_pickle_boundary(self):
        with BatchRoutingService(mode="process", max_workers=2, cache=False,
                                 time_budget=15.0) as service:
            if service.pool.mode != "process":
                pytest.skip("no process pool on this platform")
            [result] = service.route_batch([small_job()])
        assert result.solved
        assert_complete_tree(result.trace)
        # The worker subtree was grafted under the service-owned root.
        assert span_names(result.trace)[0] == "job"
        assert find_span(result.trace, "route") is not None

    def test_tracing_disabled_leaves_results_bare(self):
        with BatchRoutingService(mode="serial", cache=False, tracer=False,
                                 time_budget=10.0) as service:
            [result] = service.route_batch([small_job()])
        assert result.solved
        assert result.trace is None
        assert service.tracer is None

    def test_queue_wait_feeds_the_telemetry_histogram(self):
        with BatchRoutingService(mode="serial", cache=False,
                                 time_budget=10.0) as service:
            service.route_batch([small_job()])
            histogram = service.metrics.get("repro_queue_wait_seconds")
            assert histogram.count >= 1
