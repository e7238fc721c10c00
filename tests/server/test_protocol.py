"""Wire-protocol schemas: versioning, submit parsing, result round trips."""

from __future__ import annotations

import json

import pytest

from repro.api.spec import RouterSpec
from repro.circuits.random_circuits import random_circuit
from repro.core.result import RoutingResult, RoutingStatus
from repro.hardware.topologies import line_architecture, tokyo_architecture
from repro.server import protocol
from repro.server.protocol import ProtocolError


@pytest.fixture
def catalog():
    return {"tokyo": tokyo_architecture(), "line4": line_architecture(4)}


@pytest.fixture
def circuit():
    return random_circuit(4, 8, seed=7, name="wire_test")


class TestVersioning:
    def test_envelope_stamps_version(self):
        assert protocol.envelope(x=1) == {"wire_version": 1, "x": 1}

    def test_missing_version_rejected(self, catalog):
        with pytest.raises(ProtocolError, match="wire_version"):
            protocol.parse_submit({"qasm": "OPENQASM 2.0;"}, catalog)

    def test_wrong_version_rejected(self, catalog):
        payload = {"wire_version": 99, "qasm": "OPENQASM 2.0;"}
        with pytest.raises(ProtocolError, match="wire_version"):
            protocol.parse_submit(payload, catalog)

    def test_submit_payload_carries_current_version(self, circuit):
        payload = protocol.submit_payload(circuit, "tokyo")
        assert payload["wire_version"] == protocol.WIRE_VERSION


class TestSubmitRoundTrip:
    def test_builds_job_with_canonical_hash(self, circuit, catalog):
        payload = protocol.submit_payload(circuit, "line4",
                                          router="sabre:seed=3",
                                          name="wire_test")
        job = protocol.parse_submit(payload, catalog)
        assert job.router == "sabre"
        assert job.options["seed"] == 3
        assert job.arch_num_qubits == 4
        assert job.name == "wire_test"

    def test_spec_dict_and_string_forms_hash_identically(self, circuit, catalog):
        spec = RouterSpec.from_string("sabre:seed=3")
        as_string = protocol.parse_submit(
            protocol.submit_payload(circuit, "line4", router="sabre:seed=3"),
            catalog)
        as_dict = protocol.parse_submit(
            protocol.submit_payload(circuit, "line4", router=spec), catalog)
        assert as_string.content_hash() == as_dict.content_hash()

    def test_explicit_architecture_object(self, circuit, catalog):
        arch = line_architecture(5)
        payload = protocol.submit_payload(circuit, arch)
        job = protocol.parse_submit(payload, catalog)
        assert job.arch_num_qubits == 5
        assert len(job.arch_edges) == 4

    def test_invalid_architecture_objects_are_protocol_errors(self, catalog):
        for field in ({"num_qubits": 0, "edges": []},
                      {"num_qubits": 4, "edges": [[1, 1]]},
                      {"num_qubits": 4, "edges": [[0, 9]]},
                      {"num_qubits": protocol.MAX_WIRE_QUBITS + 1,
                       "edges": [[0, 1]]}):
            with pytest.raises(ProtocolError, match="malformed architecture"):
                protocol.architecture_from_wire(field, catalog)
        largest = protocol.architecture_from_wire(
            {"num_qubits": protocol.MAX_WIRE_QUBITS, "edges": [[0, 1]]}, catalog)
        assert largest.num_qubits == protocol.MAX_WIRE_QUBITS

    def test_time_budget_folds_into_spec(self, circuit, catalog):
        payload = protocol.submit_payload(circuit, "line4", router="sabre",
                                          time_budget=7.0)
        job = protocol.parse_submit(payload, catalog)
        assert job.options["time_budget"] == 7.0
        limit = protocol.MAX_WIRE_TIME_BUDGET
        payload = protocol.submit_payload(circuit, "line4", router="sabre",
                                          time_budget=limit)
        assert protocol.parse_submit(payload, catalog).options["time_budget"] \
            == limit

    @pytest.mark.parametrize("router, time_budget", [
        ("satmap", float("nan")),
        ("satmap", float("inf")),
        ("satmap:time_budget=inf", None),
        ("satmap:time_budget=nan", None),
        ("satmap", 1e9),
        ("satmap:time_budget=1e9", None),
        ("satmap:swaps_per_gate=0", None),
        ("nl-satmap:swaps_per_gate=-3", None),
        ("cyclic:swaps_per_gate=0", None),
        ("olsq:swaps_per_gate=0", None),
    ])
    def test_hostile_router_values_are_rejected_at_the_door(
            self, circuit, catalog, router, time_budget):
        # Through JSON text, as a front receives it: Python's json module
        # reads the NaN and Infinity literals.
        payload = json.loads(json.dumps(protocol.submit_payload(
            circuit, "line4", router=router, time_budget=time_budget)))
        with pytest.raises(ProtocolError, match="time_budget|swaps_per_gate"):
            protocol.parse_submit(payload, catalog)

    def test_unknown_architecture_lists_known_names(self, circuit, catalog):
        payload = protocol.submit_payload(circuit, "no-such-arch")
        with pytest.raises(ProtocolError, match="line4"):
            protocol.parse_submit(payload, catalog)

    def test_unknown_router_rejected(self, circuit, catalog):
        payload = protocol.submit_payload(circuit, "line4", router="no-such")
        with pytest.raises(ProtocolError, match="router"):
            protocol.parse_submit(payload, catalog)

    def test_bad_qasm_rejected(self, catalog):
        payload = protocol.submit_payload("this is not qasm", "line4")
        with pytest.raises(ProtocolError, match="OpenQASM"):
            protocol.parse_submit(payload, catalog)

    def test_circuit_wider_than_architecture_rejected(self, catalog):
        wide = random_circuit(6, 6, seed=0)
        payload = protocol.submit_payload(wide, "line4")
        with pytest.raises(ProtocolError, match="qubits"):
            protocol.parse_submit(payload, catalog)

    def test_whitespace_variants_hash_identically(self, circuit, catalog):
        """Formatting differences in the QASM must not split the dedup key."""
        from repro.circuits.qasm import circuit_to_qasm
        text = circuit_to_qasm(circuit)
        sloppy = text.replace("\n", "\n\n")
        one = protocol.parse_submit(
            protocol.submit_payload(text, "line4"), catalog)
        two = protocol.parse_submit(
            protocol.submit_payload(sloppy, "line4"), catalog)
        assert one.content_hash() == two.content_hash()


class TestResultRoundTrip:
    def test_solved_result_round_trips_with_circuit(self, circuit):
        from repro import route
        result = route(circuit, tokyo_architecture(), spec="sabre:seed=0")
        assert result.solved
        wire = protocol.result_to_wire(result)
        rebuilt = protocol.result_from_wire(wire)
        assert rebuilt.solved
        assert rebuilt.swap_count == result.swap_count
        assert rebuilt.routed_circuit is not None
        assert rebuilt.initial_mapping == result.initial_mapping

    def test_unsolved_result_round_trips(self):
        result = RoutingResult(status=RoutingStatus.TIMEOUT,
                               router_name="satmap", circuit_name="c",
                               solve_time=1.5, notes="budget exhausted")
        wire = protocol.result_to_wire(result)
        assert wire["solved"] is False
        rebuilt = protocol.result_from_wire(wire)
        assert rebuilt.status is RoutingStatus.TIMEOUT
        assert not rebuilt.solved
        assert rebuilt.notes == "budget exhausted"

    def test_malformed_result_payload_raises(self):
        with pytest.raises(ProtocolError):
            protocol.result_from_wire({"solved": True, "status": "feasible"})
        with pytest.raises(ProtocolError):
            protocol.result_from_wire({"solved": False})
