"""The Router protocol and the shared routing scaffolding.

Every mapping-and-routing algorithm in this repository -- SATMAP and its
variants, the heuristic and constraint-based baselines, and any router a user
registers -- satisfies the same structural :class:`Router` protocol: a
``name`` attribute and a ``route(circuit, architecture) -> RoutingResult``
method.  The protocol is ``runtime_checkable``, so ``isinstance(obj, Router)``
works on anything with the right shape, inheritance or not.

:class:`BaseRouter` is the shared implementation of everything *around* an
algorithm: wall-clock deadlines, timeout translation, error capture (with the
traceback tail recorded in ``RoutingResult.notes`` so failures name their
site), result stamping, and post-hoc verification.  Subclasses implement only
:meth:`BaseRouter._route`.  One error is never captured: a
:class:`~repro.sat.native.CrossCheckError` (cross-check mode caught the
native core disagreeing with the reference core) propagates to the caller.

The SATMAP family and the baselines share this one scaffolding.
"""

from __future__ import annotations

import abc
import math
import time
import traceback
from typing import Protocol, runtime_checkable

from repro.circuits.circuit import QuantumCircuit
from repro.core.result import RoutingResult, RoutingStatus
from repro.core.verifier import verify_routing
from repro.hardware.architecture import Architecture
from repro.obs import trace as obs_trace
from repro.sat.native import CrossCheckError


class RoutingTimeout(Exception):
    """Raised internally when a router exceeds its deadline."""


@runtime_checkable
class Router(Protocol):
    """Structural interface of every router: a name and a ``route`` method."""

    name: str

    def route(self, circuit: QuantumCircuit,
              architecture: Architecture) -> RoutingResult:
        """Map and route ``circuit`` onto ``architecture``."""
        ...  # pragma: no cover - protocol body


def format_error_notes(error: BaseException, frames: int = 3) -> str:
    """``type: message`` plus the innermost traceback frames.

    A bare ``type: message`` loses the failure site; the tail (innermost
    frame first) makes an ERROR result debuggable from its notes alone.
    """
    notes = f"{type(error).__name__}: {error}"
    tail = traceback.extract_tb(error.__traceback__)[-frames:]
    if tail:
        site = " <- ".join(
            f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno} in {frame.name}"
            for frame in reversed(tail))
        notes += f" [at {site}]"
    return notes


class BaseRouter(abc.ABC):
    """Deadline, error-capture, stamping, and verification scaffolding.

    Subclasses implement :meth:`_route`; everything else -- translating
    :class:`RoutingTimeout` into a TIMEOUT result, capturing crashes (other
    than a cross-check disagreement, which propagates) as ERROR results
    with the failure site in ``notes``, stamping the router/circuit
    names and wall-clock time, and running the independent verifier on every
    produced solution -- is shared here.
    """

    name: str = "router"

    def __init__(self, time_budget: float = 60.0, verify: bool = True) -> None:
        # Written so that NaN fails too: it compares false with everything.
        if not 0 < time_budget < math.inf:
            raise ValueError("time_budget must be positive and finite")
        self.time_budget = time_budget
        self.verify = verify

    def route(self, circuit: QuantumCircuit,
              architecture: Architecture) -> RoutingResult:
        """Route ``circuit`` onto ``architecture`` within the time budget."""
        start = time.monotonic()
        deadline = start + self.time_budget
        try:
            result = self._route(circuit, architecture, deadline)
        except RoutingTimeout:
            return RoutingResult(
                status=RoutingStatus.TIMEOUT,
                router_name=self.name,
                circuit_name=circuit.name,
                solve_time=time.monotonic() - start,
            )
        except CrossCheckError:
            # Two solve cores disagreeing is a bug in one of them, not a
            # routing failure: it must stay loud.
            raise
        except Exception as error:
            return RoutingResult(
                status=RoutingStatus.ERROR,
                router_name=self.name,
                circuit_name=circuit.name,
                solve_time=time.monotonic() - start,
                notes=format_error_notes(error),
            )
        result.router_name = self.name
        result.circuit_name = self._circuit_label(circuit)
        result.solve_time = time.monotonic() - start
        if result.solved and self.verify and result.routed_circuit is not None:
            with obs_trace.span("verify") as verify_span:
                self._verify(circuit, architecture, result)
                verify_span.set(swaps=result.swap_count)
        return result

    @abc.abstractmethod
    def _route(self, circuit: QuantumCircuit, architecture: Architecture,
               deadline: float) -> RoutingResult:
        """Algorithm-specific implementation."""

    # ----------------------------------------------------------------- hooks

    def _circuit_label(self, circuit: QuantumCircuit) -> str:
        """The circuit name stamped on results (overridable for wrappers)."""
        return circuit.name

    def _verify(self, circuit: QuantumCircuit, architecture: Architecture,
                result: RoutingResult) -> None:
        """Check a solved result with the independent verifier.

        Wrappers whose routed circuit is not the input circuit verbatim (the
        cyclic router stitches ``cycles`` copies) override this to verify
        against the right reference.
        """
        verify_routing(circuit, result.routed_circuit, result.initial_mapping,
                       architecture)

    @staticmethod
    def check_deadline(deadline: float) -> None:
        if time.monotonic() > deadline:
            raise RoutingTimeout
