"""repro: a reproduction of "Qubit Mapping and Routing via MaxSAT" (MICRO 2022).

The package is organised bottom-up:

* :mod:`repro.sat` / :mod:`repro.maxsat` -- a CDCL SAT solver and an anytime
  weighted MaxSAT solver (the substrate the paper gets from Open-WBO-Inc-MCS);
* :mod:`repro.circuits` -- circuit IR, OpenQASM 2.0 I/O, QAOA and benchmark
  generators;
* :mod:`repro.hardware` -- coupling graphs (IBM Tokyo and variants) and noise
  models;
* :mod:`repro.core` -- SATMAP itself: the MaxSAT encoding, the locally optimal
  (slicing) relaxation, the cyclic relaxation, the noise-aware objective, and
  the independent verifier;
* :mod:`repro.baselines` -- SABRE, TKET-style, MQT-A*, TB-OLSQ-style and
  EX-MQT-style comparison routers;
* :mod:`repro.api` -- the canonical public surface: the ``Router`` protocol,
  declarative ``RouterSpec`` s, the capability-aware router registry, and the
  one-call :func:`repro.route`;
* :mod:`repro.analysis` -- the experiment harness that regenerates the paper's
  tables and figures;
* :mod:`repro.service` -- the batch routing service: a parallel worker pool,
  portfolio racing, and a content-addressed cache of verified results;
* :mod:`repro.server` -- the network layer: an asyncio JSON-over-HTTP
  gateway serving the batch service to concurrent clients (versioned wire
  protocol, cross-client dedup, token-bucket admission control, ``/metrics``,
  graceful drain) plus the blocking ``RoutingClient``;
* :mod:`repro.obs` -- observability primitives shared by all of the above:
  nested spans that survive the process-pool boundary, fixed-bucket
  Prometheus histograms, and a JSONL trace exporter.

Quickstart -- route one circuit with a declarative router spec:

    >>> import repro
    >>> circuit = repro.random_circuit(num_qubits=4, num_two_qubit_gates=8,
    ...                                seed=1)
    >>> result = repro.route(circuit, repro.tokyo_architecture(),
    ...                      spec="sabre:seed=0,time_budget=10")
    >>> result.solved
    True

Specs name any registered router and round-trip between the string, dict,
and JSON forms (the dict form is what keys the service's result cache):

    >>> spec = repro.RouterSpec.from_string("satmap:slice_size=25")
    >>> spec.to_dict()
    {'router': 'satmap', 'options': {'slice_size': 25}}
    >>> repro.RouterSpec.parse(spec.to_dict()) == spec
    True
    >>> "noise-satmap" in repro.list_routers(capability="noise_aware")
    True

The same specs drive the batch service (parallel worker pool, portfolio
racing, verified result cache)::

    from repro import BatchRoutingService, RoutingJob

    with BatchRoutingService(time_budget=10.0) as service:
        jobs = [RoutingJob.from_spec(circ, arch, "satmap:slice_size=25")
                for circ in circuits]
        results = service.route_batch(jobs)
"""

from repro.circuits import (
    QuantumCircuit,
    load_qasm,
    maxcut_qaoa_circuit,
    parse_qasm,
    random_circuit,
)
from repro.core import (
    CyclicRouter,
    NoiseAwareSatMapRouter,
    RoutingResult,
    RoutingStatus,
    SatMapRouter,
    route_cyclic,
    verify_routing,
)

# repro.api sits above repro.core (its protocol module needs core.result and
# core's routers import the protocol), so it must import after repro.core.
from repro.api import (
    BaseRouter,
    RouteRequest,
    Router,
    RouterSpec,
    get_router,
    list_routers,
    register_router,
    route,
)
from repro.hardware import (
    Architecture,
    NoiseModel,
    tokyo_architecture,
    tokyo_minus_architecture,
    tokyo_plus_architecture,
)
from repro.service import BatchRoutingService, ResultCache, RoutingJob
from repro.server import RoutingClient, RoutingGateway

__version__ = "1.10.0"

__all__ = [
    "QuantumCircuit",
    "random_circuit",
    "maxcut_qaoa_circuit",
    "parse_qasm",
    "load_qasm",
    "route",
    "Router",
    "BaseRouter",
    "RouterSpec",
    "RouteRequest",
    "register_router",
    "get_router",
    "list_routers",
    "SatMapRouter",
    "NoiseAwareSatMapRouter",
    "CyclicRouter",
    "route_cyclic",
    "RoutingResult",
    "RoutingStatus",
    "verify_routing",
    "Architecture",
    "NoiseModel",
    "BatchRoutingService",
    "RoutingJob",
    "ResultCache",
    "RoutingClient",
    "RoutingGateway",
    "tokyo_architecture",
    "tokyo_minus_architecture",
    "tokyo_plus_architecture",
    "__version__",
]
