"""A gateway and a fleet answer the same requests the same way.

Both fronts run on the one HTTP front in :mod:`repro.server.http`, so
hostile input gets the same 4xx from either, long-poll values are parsed the
same way, malformed submissions never spend admission quota, and both keep
the serving invariants a served workload relies on: every cold job solves,
warm repeats never reach a solver, and admission refuses nothing when it is
wide open.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.circuits.random_circuits import random_circuit
from repro.server import AdmissionController, RoutingClient, protocol

ARCH = "tokyo6"
ROUTER = "sabre:seed=0"


def raw_status(port: int, data: bytes) -> int:
    """Send raw bytes as one request; the status code of the reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        status_line = sock.recv(4096).split(b"\r\n", 1)[0]
    return int(status_line.split()[1])


def request_bytes(method: str, target: str, body: bytes = b"",
                  client_id: str = "parity") -> bytes:
    return (f"{method} {target} HTTP/1.1\r\nX-Client-Id: {client_id}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def valid_submit_body(seed: int) -> bytes:
    circuit = random_circuit(4, 6, seed=seed, name=f"parity_{seed}")
    return json.dumps(protocol.submit_payload(
        circuit, architecture=ARCH, router=ROUTER)).encode()


def wire_architecture_submit(num_qubits: int, edges: list) -> bytes:
    """A submit whose circuit is fine but whose architecture object is not."""
    payload = json.loads(valid_submit_body(seed=4))
    payload["architecture"] = {"num_qubits": num_qubits, "edges": edges}
    return request_bytes("POST", "/v1/jobs", json.dumps(payload).encode())


def router_submit(router: str, time_budget: float | None = None) -> bytes:
    """A valid submit but for its router spec or wire budget."""
    payload = json.loads(valid_submit_body(seed=4))
    payload["router"] = router
    if time_budget is not None:
        payload["time_budget"] = time_budget
    return request_bytes("POST", "/v1/jobs", json.dumps(payload).encode())


#: ``(case, raw request, expected status)``; ``{job}`` is a finished job.
CASES = [
    ("unknown path", request_bytes("GET", "/v1/nope"), 404),
    ("wrong method on a known path", request_bytes("DELETE", "/v1/jobs"), 404),
    ("non-JSON body", request_bytes("POST", "/v1/jobs", b"not json"), 400),
    ("JSON array body", request_bytes("POST", "/v1/jobs", b"[1, 2]"), 400),
    ("wrong wire_version", request_bytes(
        "POST", "/v1/jobs", b'{"wire_version": 99, "qasm": "x"}'), 400),
    ("non-numeric wait", request_bytes("GET", "/v1/jobs/{job}?wait=abc"), 400),
    ("malformed request line", b"garbage\r\n\r\n", 400),
    ("negative Content-Length",
     b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    ("oversized body",
     b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
    ("architecture without qubits", wire_architecture_submit(0, []), 400),
    ("architecture self-loop", wire_architecture_submit(4, [[1, 1]]), 400),
    ("architecture edge out of range", wire_architecture_submit(4, [[0, 9]]),
     400),
    ("architecture over the qubit limit", wire_architecture_submit(
        protocol.MAX_WIRE_QUBITS + 1, [[0, 1], [1, 2], [2, 3]]), 400),
    ("NaN wire budget", router_submit(ROUTER, float("nan")), 400),
    ("wire budget over the limit", router_submit(
        ROUTER, protocol.MAX_WIRE_TIME_BUDGET * 2), 400),
    ("swaps_per_gate=0", router_submit("satmap:swaps_per_gate=0"), 400),
    ("wait=-inf", request_bytes("GET", "/v1/jobs/{job}?wait=-inf"), 200),
    ("wait=nan", request_bytes("GET", "/v1/jobs/{job}?wait=nan"), 200),
]


def test_hostile_input_gets_the_same_status_from_both_fronts(
        gateway_factory, fleet_factory):
    fronts = {"gateway": gateway_factory(), "fleet": fleet_factory(workers=2)}
    expected = {case: status for case, _, status in CASES}
    for name, front in fronts.items():
        client = RoutingClient(port=front.port, client_id="parity")
        ticket = client.submit(random_circuit(4, 6, seed=3, name="known"),
                               architecture=ARCH, router=ROUTER)
        client.wait(ticket["job_id"], timeout=60)
        job = ticket["job_id"].encode()
        statuses = {case: raw_status(front.port, data.replace(b"{job}", job))
                    for case, data, _ in CASES}
        assert statuses == expected, name
    # A long-poll value the front clamps never turns into a proxy timeout.
    counters = fronts["fleet"].dispatcher.counters
    assert counters["proxy_failures"] == 0
    assert counters["retried"] == 0


@pytest.mark.parametrize("kind", ["gateway", "fleet"])
def test_malformed_submits_spend_no_quota(kind, gateway_factory,
                                          fleet_factory):
    # One token and (practically) no refill: only an admitted submit spends it.
    if kind == "gateway":
        front = gateway_factory(admission=AdmissionController(
            rate=1e-6, burst=1.0, max_pending=100))
    else:
        front = fleet_factory(workers=2, rate=1e-6, burst=1.0)
    statuses = [raw_status(front.port, request_bytes(
                    "POST", "/v1/jobs", body, client_id="one-token"))
                for body in (b"not json", b"also not json",
                             valid_submit_body(seed=5))]
    assert statuses == [400, 400, 202]


@pytest.mark.parametrize("kind", ["gateway", "fleet"])
def test_cold_jobs_solve_and_warm_repeats_never_resolve(
        kind, gateway_factory, fleet_factory):
    """Every distinct cold job solves; warm repeats are answered without a
    solve; wide-open admission refuses nothing; no worker restarts."""
    if kind == "gateway":
        front = gateway_factory(admission=AdmissionController(
            rate=1e4, burst=1e4, max_pending=10_000))
    else:
        front = fleet_factory(workers=2, rate=1e4, burst=1e4,
                              max_pending=10_000)
    client = RoutingClient(port=front.port, client_id="warm", retry_quota=0)
    circuits = [random_circuit(4, 6 + index % 3, seed=800 + index,
                               name=f"warm_{index}") for index in range(6)]

    def counters() -> dict:
        stats = client.stats()
        if kind == "fleet":
            return {**stats["totals"]["gateway"],
                    **stats["fleet"]["admission"],
                    "worker_restarts":
                        stats["fleet"]["dispatcher"]["worker_restarts"]}
        return {**stats["gateway"], **stats["admission"]}

    cold = [client.route(circuit, architecture=ARCH, router=ROUTER,
                         timeout=60) for circuit in circuits]
    assert all(result.solved for result in cold)
    after_cold = counters()
    assert after_cold["submitted"] == len(circuits)

    tickets = [client.submit(circuit, architecture=ARCH, router=ROUTER)
               for circuit in circuits]
    assert all(ticket["deduplicated"] for ticket in tickets)
    warm = [client.wait(ticket["job_id"], timeout=60) for ticket in tickets]
    assert [result.swap_count for result in warm] == \
        [result.swap_count for result in cold]
    after_warm = counters()
    assert after_warm["submitted"] == len(circuits)
    assert after_warm["deduplicated"] == len(circuits)
    assert after_warm["rejected_quota"] == 0
    assert after_warm["rejected_backpressure"] == 0
    assert after_warm.get("worker_restarts", 0) == 0
