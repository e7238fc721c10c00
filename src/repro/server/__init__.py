"""Network serving for the routing service: gateway, protocol, client.

This subsystem puts a request-lifecycle layer in front of
:class:`~repro.service.BatchRoutingService` so callers no longer have to
live in the same Python process:

* :mod:`repro.server.protocol` -- the versioned JSON wire schemas, built on
  the library's canonical forms (``RouterSpec.to_dict``, canonical QASM,
  the job content hash) so identical requests from different clients
  deduplicate into one solve;
* :mod:`repro.server.admission` -- token-bucket quotas per client plus a
  global pending-work bound; overload degrades to 429 + ``Retry-After``;
* :mod:`repro.server.http` -- the one stdlib asyncio HTTP front the
  gateway and the fleet dispatcher share: connection handling, JSON body
  parsing, the route table, the shared endpoints, :func:`serve` (graceful
  drain on SIGTERM) and the daemon-thread runner;
* :mod:`repro.server.app` -- the gateway's own handlers on that front:
  submit / poll / long-poll / fetch-result job lifecycle, ``/metrics``,
  ``/v1/stats`` and drain;
* :mod:`repro.server.client` -- a small blocking :class:`RoutingClient`
  used by ``repro submit``, the examples, and the tests.

Quick round trip (in-process server thread)::

    from repro.server import GatewayThread, RoutingClient

    with GatewayThread() as gw:
        client = RoutingClient(port=gw.port)
        result = client.route(circuit, architecture="tokyo8",
                              router="sabre:seed=1")
"""

from repro.server.admission import AdmissionController, AdmissionDecision, TokenBucket
from repro.server.app import GatewayThread, JobRecord, RoutingGateway
from repro.server.http import serve
from repro.server.client import QuotaExceededError, RoutingClient, ServerError
from repro.server.protocol import WIRE_VERSION, ProtocolError

__all__ = [
    "RoutingGateway",
    "GatewayThread",
    "JobRecord",
    "serve",
    "RoutingClient",
    "ServerError",
    "QuotaExceededError",
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "ProtocolError",
    "WIRE_VERSION",
]
