"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import cx
from repro.hardware.topologies import (
    grid_architecture,
    line_architecture,
    reduced_tokyo_architecture,
    ring_architecture,
    tokyo_architecture,
)
from repro.server import GatewayThread
from repro.service import BatchRoutingService


@pytest.fixture
def running_example_circuit() -> QuantumCircuit:
    """The paper's Fig. 3 running example: four CNOTs on four qubits."""
    circuit = QuantumCircuit(4, name="running_example")
    circuit.extend([cx(0, 1), cx(0, 2), cx(3, 2), cx(0, 3)])
    return circuit


@pytest.fixture
def line4():
    """The paper's Fig. 3(b) connectivity graph: a 4-qubit line."""
    return line_architecture(4)


@pytest.fixture
def line5():
    return line_architecture(5)


@pytest.fixture
def ring6():
    return ring_architecture(6)


@pytest.fixture
def grid2x3():
    return grid_architecture(2, 3)


@pytest.fixture
def tokyo():
    return tokyo_architecture()


@pytest.fixture
def tokyo8():
    """An 8-qubit Tokyo subgraph, the scaled default target."""
    return reduced_tokyo_architecture(8)


@pytest.fixture
def gateway_factory():
    """Start gateways on free ports; drain and close them all afterwards.

    Shared by ``tests/server`` and the gateway-vs-fleet parity tests in
    ``tests/cluster``.
    """
    handles: list[tuple[GatewayThread, BatchRoutingService]] = []

    def make(service: BatchRoutingService | None = None,
             **kwargs) -> GatewayThread:
        if service is None:
            service = BatchRoutingService(mode="serial", time_budget=5.0)
        kwargs.setdefault("time_budget", 5.0)
        handle = GatewayThread(service=service, **kwargs).start()
        handles.append((handle, service))
        return handle

    yield make
    for handle, service in handles:
        handle.stop()
        service.close()
