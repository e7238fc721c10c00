"""The gateway's wire protocol: versioned JSON request/response schemas.

Everything that crosses the network is defined here, so the asyncio app
(:mod:`repro.server.app`), the blocking client
(:mod:`repro.server.client`), and the tests all speak from one module.

Design rules:

* **Versioned.**  Every request and response carries ``"wire_version"``
  (:data:`WIRE_VERSION`).  A request with a missing or different version is
  rejected with HTTP 400 before any work happens, so old clients fail fast
  instead of mis-parsing.
* **Reuses the library's canonical forms.**  Routers travel as
  :meth:`repro.api.RouterSpec.to_dict` dicts (or spec strings), circuits as
  canonical OpenQASM 2.0, architectures as catalogue names or explicit
  edge lists -- exactly the data a :class:`~repro.service.jobs.RoutingJob`
  hashes.  Two clients submitting the same work therefore produce the same
  job content hash and deduplicate into a single solve.
* **Results round-trip through the cache serialiser.**  A solved result is
  shipped as the same payload :mod:`repro.service.cache` stores on disk
  (:func:`result_to_payload`), so the client can rebuild a full
  :class:`~repro.core.result.RoutingResult` -- routed circuit included.

Submit request schema (``POST /v1/jobs``)::

    {
      "wire_version": 1,
      "qasm": "OPENQASM 2.0; ...",
      "router": "satmap:slice_size=25"            # or RouterSpec.to_dict()
      "architecture": "tokyo8",                    # or {"num_qubits", "edges"}
      "name": "my_circuit",                        # optional display name
      "time_budget": 5.0                           # optional, seconds
    }

Status response schema (``GET /v1/jobs/<id>``)::

    {
      "wire_version": 1,
      "job_id": "<64-hex content hash>",
      "status": "queued" | "running" | "done",
      "name": "...", "spec": {"router": ..., "options": {...}},
      "submissions": 2,          # dedup count: submits answered by this job
      "cache_hit": false,
      "solved": true,            # only once status == "done"
      "result": {...}            # only when requested / on the result endpoint
    }
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.spec import RouterSpec, SpecError
from repro.circuits.qasm import circuit_to_qasm, parse_qasm
from repro.core.result import RoutingResult, RoutingStatus
from repro.hardware.architecture import Architecture
from repro.service.cache import payload_to_result, result_to_payload
from repro.service.jobs import RoutingJob

#: Bump on any incompatible change to the request/response schemas.
WIRE_VERSION = 1

#: Largest ``num_qubits`` a wire architecture object may declare (the
#: largest catalogue device has 27).  Parsing costs memory and time per
#: declared qubit, so a few-byte request must not be able to ask for more.
MAX_WIRE_QUBITS = 1024

#: Largest ``time_budget`` (seconds) a request may ask for, in the payload's
#: ``time_budget`` field or in its router spec.  One request must not be
#: able to hold a worker indefinitely.
MAX_WIRE_TIME_BUDGET = 3600.0


class ProtocolError(ValueError):
    """A malformed or unsupported request; maps to an HTTP 4xx response."""

    def __init__(self, message: str, http_status: int = 400) -> None:
        super().__init__(message)
        self.http_status = http_status


def envelope(payload: dict | None = None, **fields: Any) -> dict:
    """A response body stamped with the wire version."""
    body = {"wire_version": WIRE_VERSION}
    if payload:
        body.update(payload)
    body.update(fields)
    return body


def check_version(payload: Mapping) -> None:
    """Reject requests that do not speak exactly :data:`WIRE_VERSION`."""
    version = payload.get("wire_version")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported wire_version {version!r}; this server speaks "
            f"wire_version {WIRE_VERSION}")


def error_payload(message: str, **extra: Any) -> dict:
    return envelope(error=message, **extra)


def numeric_param(query: Mapping, name: str, default: float,
                  minimum: float | None = None,
                  maximum: float | None = None) -> float:
    """Parse an optional numeric query parameter, clamping to the bounds.

    Shared by the admin/introspection endpoints (``?seconds=``,
    ``?limit=``, ``?wait=``-style knobs): a missing value yields
    ``default``, a non-numeric one is a :class:`ProtocolError`, and values
    outside ``[minimum, maximum]`` are clamped rather than rejected so
    operators cannot request an unbounded profile or event dump.
    """
    raw = query.get(name)
    if raw is None or raw == "":
        value = float(default)
    else:
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise ProtocolError(f"{name} must be a number") from None
    if minimum is not None:
        value = max(minimum, value)
    if maximum is not None:
        value = min(maximum, value)
    return value


# --------------------------------------------------------------- submissions


def architecture_to_wire(architecture: Architecture | str) -> Any:
    """An architecture as it travels in a submit request."""
    if isinstance(architecture, str):
        return architecture
    return {
        "num_qubits": architecture.num_qubits,
        "edges": sorted([min(a, b), max(a, b)] for a, b in architecture.edges),
        "name": architecture.name,
    }


def architecture_from_wire(field: Any,
                           catalog: Mapping[str, Architecture]) -> Architecture:
    """Resolve the ``architecture`` field of a submit request."""
    if isinstance(field, str):
        if field not in catalog:
            known = ", ".join(sorted(catalog))
            raise ProtocolError(
                f"unknown architecture {field!r}; known names: {known}")
        return catalog[field]
    if isinstance(field, Mapping):
        try:
            num_qubits = int(field["num_qubits"])
            if num_qubits > MAX_WIRE_QUBITS:
                raise ValueError(f"num_qubits {num_qubits} exceeds the limit "
                                 f"of {MAX_WIRE_QUBITS}")
            edges = [(int(a), int(b)) for a, b in field["edges"]]
            return Architecture(num_qubits, edges,
                                name=str(field.get("name", "wire-architecture")))
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(
                f"malformed architecture object: {error}") from None
    raise ProtocolError("architecture must be a catalogue name or an object "
                        "with num_qubits and edges")


def submit_payload(circuit: Any, architecture: Architecture | str,
                   router: str | dict | RouterSpec = "satmap",
                   name: str | None = None,
                   time_budget: float | None = None) -> dict:
    """Build a submit request (client side).

    ``circuit`` is a :class:`~repro.circuits.circuit.QuantumCircuit` or
    OpenQASM 2.0 text; ``router`` any :class:`RouterSpec` form.
    """
    if isinstance(circuit, str):
        qasm = circuit
    else:
        qasm = circuit_to_qasm(circuit)
        if name is None:
            name = getattr(circuit, "name", None)
    if isinstance(router, RouterSpec):
        router = router.to_dict()
    payload = {
        "wire_version": WIRE_VERSION,
        "qasm": qasm,
        "router": router,
        "architecture": architecture_to_wire(architecture),
    }
    if name is not None:
        payload["name"] = name
    if time_budget is not None:
        payload["time_budget"] = float(time_budget)
    return payload


def parse_submit(payload: Mapping,
                 catalog: Mapping[str, Architecture]) -> RoutingJob:
    """Validate a submit request and build the routing job it describes.

    The job is built through :meth:`RoutingJob.from_circuit`, which
    canonicalises the QASM text and validates the spec against the registry
    schemas -- so any two requests describing the same work hash identically
    no matter how they were spelled, and misconfigured requests fail here
    with a :class:`ProtocolError` instead of inside a worker.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError("request body must be a JSON object")
    check_version(payload)
    qasm = payload.get("qasm")
    if not isinstance(qasm, str) or not qasm.strip():
        raise ProtocolError("missing or empty 'qasm' field")
    architecture = architecture_from_wire(payload.get("architecture", "tokyo"),
                                          catalog)
    try:
        spec = RouterSpec.parse(payload.get("router", "satmap"))
        if payload.get("time_budget") is not None:
            spec = spec.with_options(time_budget=float(payload["time_budget"]))
        # Validate against the registry schema now (unknown routers raise a
        # KeyError subclass) so misconfigured requests fail at the door.
        spec = spec.validated()
        if spec.options.get("time_budget", 0) > MAX_WIRE_TIME_BUDGET:
            raise ValueError(f"time_budget is over the wire limit of "
                             f"{MAX_WIRE_TIME_BUDGET:g} s")
    except (SpecError, KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else error
        raise ProtocolError(f"invalid router spec: {message}") from None
    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        raise ProtocolError("'name' must be a string")
    try:
        circuit = parse_qasm(qasm, name=name or "job")
    except Exception as error:
        raise ProtocolError(f"invalid OpenQASM 2.0: {error}") from None
    if circuit.num_qubits > architecture.num_qubits:
        raise ProtocolError(
            f"circuit uses {circuit.num_qubits} qubits but the architecture "
            f"has only {architecture.num_qubits}")
    try:
        return RoutingJob.from_circuit(circuit, architecture, router=spec,
                                       name=name)
    except (SpecError, KeyError, ValueError) as error:
        raise ProtocolError(f"invalid job: {error}") from None


# ------------------------------------------------------------------- results


def result_to_wire(result: RoutingResult) -> dict:
    """A routing result as it travels in a response body.

    Solved results reuse the cache serialisation (routed circuit as QASM,
    mappings, counters); unsolved ones carry status and notes only.
    """
    if result.solved and result.routed_circuit is not None:
        payload = result_to_payload(result)
        payload["solved"] = True
        return payload
    return {
        "solved": False,
        "status": result.status.value,
        "router_name": result.router_name,
        "circuit_name": result.circuit_name,
        "solve_time": result.solve_time,
        "notes": result.notes,
    }


def result_from_wire(payload: Mapping) -> RoutingResult:
    """Rebuild a :class:`RoutingResult` from :func:`result_to_wire` output."""
    if not isinstance(payload, Mapping):
        raise ProtocolError("result payload must be a JSON object")
    if payload.get("solved"):
        try:
            return payload_to_result(dict(payload))
        except Exception as error:
            raise ProtocolError(f"malformed result payload: {error}") from None
    try:
        return RoutingResult(
            status=RoutingStatus(payload["status"]),
            router_name=str(payload.get("router_name", "")),
            circuit_name=str(payload.get("circuit_name", "")),
            solve_time=float(payload.get("solve_time", 0.0)),
            notes=str(payload.get("notes", "")),
        )
    except (KeyError, ValueError) as error:
        raise ProtocolError(f"malformed result payload: {error}") from None
