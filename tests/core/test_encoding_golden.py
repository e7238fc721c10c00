"""Golden guard for the QMR encoding: clause text and variable numbering.

Every case below hashes the encoder's DIMACS WCNF text together with the
variable count (and, for the pinned cases, the assumption literals that pin
the initial map).
The hashes were captured from the clause-at-a-time encoder, before hard
clauses moved to flat int32 buffers.  The native core's search depends on
the exact clause order and numbering, so a moved hash means routing results
(SWAP counts, backtracks, job outcomes) can silently change; regenerate the
table only for a deliberate encoding change.

To print the current hashes: ``PYTHONPATH=src python
tests/core/test_encoding_golden.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import h, rz
from repro.circuits.random_circuits import random_circuit
from repro.core.encoder import EncodingOptions, QmrEncoder
from repro.hardware.noise import NoiseModel
from repro.hardware.topologies import (
    line_architecture,
    reduced_tokyo_architecture,
    tokyo_architecture,
)
from repro.sat.backends import create_solver
from repro.sat.dimacs import write_wcnf

TOKYO8 = reduced_tokyo_architecture(8)
PIN = {0: 3, 1: 0, 2: 5, 3: 1, 4: 6}


def _case(architecture, circuit, pin=None, **options):
    return architecture, circuit, options, pin


CASES = {
    "plain-tokyo": _case(tokyo_architecture(), random_circuit(6, 12, seed=1)),
    "plain-tokyo8": _case(TOKYO8, random_circuit(5, 10, seed=2)),
    "plain-line": _case(line_architecture(5), random_circuit(4, 8, seed=3)),
    "no-collapse": _case(TOKYO8, random_circuit(4, 10, seed=4,
                                                 interaction_bias=0.9),
                         collapse_repeated_pairs=False),
    "leading-slots-2": _case(TOKYO8, random_circuit(5, 8, seed=5),
                             leading_slots=2),
    "swaps-per-gate-2": _case(line_architecture(5), random_circuit(4, 6, seed=6),
                              swaps_per_gate=2),
    "cyclic": _case(TOKYO8, random_circuit(5, 8, seed=8), cyclic=True),
    "noise": _case(TOKYO8, random_circuit(5, 8, seed=9),
                   noise_model=NoiseModel.synthetic(TOKYO8, seed=9)),
    "fixed-assumed": _case(TOKYO8, random_circuit(5, 8, seed=10), pin=PIN,
                           leading_slots=1),
    "no-two-qubit-gates": _case(line_architecture(4),
                                QuantumCircuit(3, [h(0), rz(1, 0.5), h(2)])),
    "no-two-qubit-gates-pinned": _case(line_architecture(4),
                                       QuantumCircuit(3, [h(0)]),
                                       pin={0: 2, 2: 0}),
    # Rows of 7 placements reach the default threshold (commander) while
    # columns of 6 occupants stay just below it (pairwise).
    "amo-threshold-edge": _case(line_architecture(7), random_circuit(6, 8, seed=11)),
}

GOLDEN = {
    "amo-threshold-edge": "c9dcd2ae6d3f41c0c792b00e352dc9ba037c71207e4c251deee29f676fb2f78e",
    "cyclic": "f0809a56c353c27afdbdecf55a7b0835ce7d26bb60adced79638f1f690ff7336",
    "fixed-assumed": "786356a484aa197c512c409264732c372f842f9d7009afb2df0b4af5bab789f8",
    "leading-slots-2": "583b040205c507f5be69cfff733276f9db919ac509cafed3e8f34bf3d2fd5c2c",
    "no-collapse": "3add2ab6d4da1c00dd17eecaa081125b7b7539a49b8acaf1f50496e5ff7f94d8",
    "no-two-qubit-gates": "7fb3643a0e05f0aca929840b0f1638c490932117e4fd900385eaa66876a5d7f6",
    "no-two-qubit-gates-pinned": "f9936f43597da077c15d8e11a3324bb6ae797cee6e19e2bb5cdbfaf8f26ad280",
    "noise": "eaa430d62bdb83fdc69cd884b4c119c21c0f7bacf8f16b090bfb2779e1c8e5ca",
    "plain-line": "2e65b27db5cb2e33647dc2712e1b76407d6bdcd71d97a80f37cc7b6aa1729dda",
    "plain-tokyo": "180c0c4a0ec3fb1bfd2df53f0f68c15cb9e53c1896c27fb19ed675d312202d54",
    "plain-tokyo8": "1e4b421332df005efea3e668968df42471b440e133e1c10b31912cf7bde7acda",
    "swaps-per-gate-2": "d9e9652159f39724b76d080654e431cff481459f21f9b63ce19fd701e0bffed5",
}


def digest_of(encoding, pin=None) -> str:
    """SHA-256 over the WCNF text, the variable count and any pin literals."""
    digest = hashlib.sha256()
    digest.update(write_wcnf(encoding.builder.to_dimacs()).encode())
    digest.update(f"vars={encoding.num_variables}".encode())
    if pin is not None:
        pins = encoding.initial_mapping_assumptions(pin)
        digest.update(f"pins={pins}".encode())
    return digest.hexdigest()


def encoding_digest(architecture, circuit, options, pin=None) -> str:
    """The digest of encoding ``circuit`` with ``options`` (see :func:`digest_of`)."""
    encoding = QmrEncoder(architecture, EncodingOptions(**options)).encode(circuit)
    return digest_of(encoding, pin)


@pytest.mark.parametrize("name", sorted(CASES))
def test_encoding_matches_the_golden_hash(name):
    assert encoding_digest(*CASES[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", ["plain-tokyo8", "fixed-assumed", "noise"])
def test_streaming_into_a_session_does_not_change_the_encoding(name):
    architecture, circuit, options, pin = CASES[name]
    encoding = QmrEncoder(architecture, EncodingOptions(**options)).encode(circuit)
    solver = create_solver("python")
    streamed = []
    add_flat = solver.add_flat

    def counting_add_flat(buffer):
        streamed.append(add_flat(buffer))
        return streamed[-1]

    solver.add_flat = counting_add_flat
    assert encoding.builder.stream_hard(solver) == encoding.builder.hard_words
    assert sum(streamed) == encoding.num_hard_clauses
    assert digest_of(encoding, pin) == GOLDEN[name]


def test_every_case_has_a_golden_hash():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for case_name in sorted(CASES):
        print(f'    "{case_name}": "{encoding_digest(*CASES[case_name])}",')
