"""Routing job specifications and content-addressed job identity.

A :class:`RoutingJob` is the unit of work the batch service operates on.  It
is deliberately *self-contained and serialisable*: the circuit is stored as
canonical OpenQASM 2.0 text and the architecture as its edge list, so a job
can cross a process boundary (``pickle`` for the worker pool) or be hashed
into a stable cache key without depending on object identity.

The content hash covers what the job itself pins down -- circuit text,
architecture shape, router name, and router options -- and nothing that
does not matter (display names, submission order).  Execution-time
parameters that also shape the outcome, such as the per-job time budget of
the anytime routers, are folded into the cache key by the service
(``BatchRoutingService._key_job``), so cached results are only shared when
the full execution config matches.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.api.registry import get_router
from repro.api.spec import RouterSpec
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qasm import circuit_to_qasm, parse_qasm
from repro.hardware.architecture import Architecture

#: Bump when the payload layout changes so stale cache entries never alias.
#: v2: the router is hashed as its canonical ``RouterSpec.to_dict()`` form.
JOB_HASH_VERSION = 2


@dataclass
class RoutingJob:
    """A self-contained, hashable description of one routing task.

    Parameters
    ----------
    qasm:
        The logical circuit as OpenQASM 2.0 text (canonical form: what
        :func:`repro.circuits.qasm.circuit_to_qasm` emits).
    arch_num_qubits / arch_edges / arch_name:
        The connectivity graph, flattened to plain data.
    router:
        Registry name of the routing algorithm (see :mod:`repro.api`),
        e.g. ``"satmap"`` or ``"sabre"``.  Together with ``options`` this is
        exactly a :class:`~repro.api.RouterSpec`; use :meth:`spec` /
        :meth:`from_spec` to convert.
    options:
        Extra keyword arguments for the router constructor.  Values must be
        JSON-serialisable scalars so the content hash is well defined.
    name:
        Display name for telemetry and result records; not hashed.
    """

    qasm: str
    arch_num_qubits: int
    arch_edges: tuple[tuple[int, int], ...]
    arch_name: str = "architecture"
    router: str = "satmap"
    options: dict = field(default_factory=dict)
    name: str = "job"
    #: Span-propagation context (``trace_id`` / ``span_id`` / ``enqueued_at``)
    #: set by the dispatching service so pool workers can graft their spans
    #: under the submitter's trace.  Never hashed: tracing must not change a
    #: job's cache identity.
    trace_context: dict | None = field(default=None, repr=False, compare=False)
    _hash: str | None = field(default=None, repr=False, compare=False)
    _cost: float | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------- builders

    @classmethod
    def from_circuit(
        cls,
        circuit: QuantumCircuit,
        architecture: Architecture,
        router: str | RouterSpec = "satmap",
        options: dict | None = None,
        name: str | None = None,
    ) -> "RoutingJob":
        """Build a job from in-memory circuit and architecture objects.

        ``router`` accepts a registry name, a spec string such as
        ``"satmap:slice_size=10"``, or a :class:`~repro.api.RouterSpec`;
        ``options`` merge over the spec's own options.  The merged spec is
        validated against the registry schema, which both fails
        misconfigured jobs at submission and *canonicalises* option types
        (``"25"`` -> ``25``, ``1`` -> ``1.0`` for float options) so the
        content hash does not depend on which construction path or spelling
        produced the job.  The router is then built once and discarded, so
        its constructor's range checks (``slice_size=-1``) also fail here
        rather than inside a worker.
        """
        spec = RouterSpec.parse(router)
        if options:
            spec = spec.with_options(**options)
        spec = spec.validated()
        get_router(spec)
        return cls(
            qasm=circuit_to_qasm(circuit),
            arch_num_qubits=architecture.num_qubits,
            arch_edges=tuple(architecture.edges),
            arch_name=architecture.name,
            router=spec.name,
            options=dict(spec.options),
            name=name or circuit.name,
        )

    @classmethod
    def from_spec(
        cls,
        circuit: QuantumCircuit,
        architecture: Architecture,
        spec: str | dict | RouterSpec,
        name: str | None = None,
    ) -> "RoutingJob":
        """Build a job from a declarative router spec (validated up front)."""
        return cls.from_circuit(circuit, architecture,
                                router=RouterSpec.parse(spec), name=name)

    # ---------------------------------------------------------- reconstruct

    def circuit(self) -> QuantumCircuit:
        """Materialise the logical circuit (fresh object each call)."""
        return parse_qasm(self.qasm, name=self.name)

    def architecture(self) -> Architecture:
        """Materialise the connectivity graph (fresh object each call)."""
        return Architecture(self.arch_num_qubits, [tuple(e) for e in self.arch_edges],
                            name=self.arch_name)

    def spec(self) -> RouterSpec:
        """This job's router selection as a declarative spec."""
        return RouterSpec(self.router, dict(self.options))

    def with_router(self, router: str, options: dict | None = None) -> "RoutingJob":
        """The same work item keyed under a different router/options pair.

        Used by the portfolio (to spawn entrants) and by the service (to
        namespace cache entries by execution config, so e.g. a portfolio
        winner can never be served as the answer to a plain ``satmap`` job).
        The ``router`` string is kept verbatim -- the service uses synthetic
        tags like ``"portfolio:satmap+sabre"`` as cache namespaces -- so spec
        parsing happens only in :meth:`with_spec` and the builders.
        """
        return RoutingJob(qasm=self.qasm, arch_num_qubits=self.arch_num_qubits,
                          arch_edges=self.arch_edges, arch_name=self.arch_name,
                          router=router, options=dict(options or {}),
                          name=self.name, trace_context=self.trace_context)

    def with_spec(self, spec: str | dict | RouterSpec) -> "RoutingJob":
        """The same work item behind a different router spec."""
        parsed = RouterSpec.parse(spec)
        return self.with_router(parsed.name, options=dict(parsed.options))

    # -------------------------------------------------------------- identity

    def content_payload(self) -> str:
        """The canonical JSON string the content hash is computed over.

        The router/options pair enters as ``RouterSpec.to_dict()`` -- the
        same canonical form the CLI prints and telemetry records -- so a
        cache key can be reproduced from any surface that shows the spec.
        """
        payload = {
            "version": JOB_HASH_VERSION,
            "qasm": self.qasm,
            "arch": {
                "num_qubits": self.arch_num_qubits,
                "edges": sorted((min(a, b), max(a, b)) for a, b in self.arch_edges),
            },
            "spec": self.spec().to_dict(),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """Stable SHA-256 over circuit, architecture, router, and options."""
        if self._hash is None:
            digest = hashlib.sha256(self.content_payload().encode("utf-8"))
            self._hash = digest.hexdigest()
        return self._hash

    @property
    def key(self) -> str:
        """Short form of the content hash, used in telemetry and filenames."""
        return self.content_hash()[:16]

    # -------------------------------------------------------------- planning

    def estimated_cost(self) -> float:
        """Cheap cost estimate used for queue priority (bigger = costlier).

        Counts two-qubit statements in the QASM text without a full parse:
        routing effort grows with the interaction count, and constraint-based
        routers also scale with the qubit count.
        """
        if self._cost is None:
            two_qubit = sum(1 for line in self.qasm.splitlines()
                            if line.count("[") >= 2 and not line.startswith(("qreg", "creg")))
            self._cost = float(two_qubit * max(self.arch_num_qubits, 1))
        return self._cost

    def describe(self) -> str:
        return (f"{self.name} [{self.router} on {self.arch_name}, "
                f"key={self.key}]")
