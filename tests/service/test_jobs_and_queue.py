"""Job identity (content hashing) and batch queue ordering."""

from __future__ import annotations

from repro.circuits.random_circuits import random_circuit
from repro.hardware.topologies import line_architecture, ring_architecture
from repro.service import RoutingJob, dispatch_order


def make_job(seed: int = 1, router: str = "sabre", options: dict | None = None,
             gates: int = 8) -> RoutingJob:
    circuit = random_circuit(4, gates, seed=seed, name=f"job_seed{seed}")
    return RoutingJob.from_circuit(circuit, line_architecture(5), router=router,
                                   options=options)


class TestContentHash:
    def test_hash_is_stable_across_constructions(self):
        assert make_job().content_hash() == make_job().content_hash()

    def test_hash_is_hex_sha256(self):
        digest = make_job().content_hash()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_display_name_does_not_affect_hash(self):
        job = make_job()
        renamed = RoutingJob(qasm=job.qasm, arch_num_qubits=job.arch_num_qubits,
                             arch_edges=job.arch_edges, arch_name=job.arch_name,
                             router=job.router, options=dict(job.options),
                             name="completely-different")
        assert renamed.content_hash() == job.content_hash()

    def test_circuit_router_options_and_arch_all_discriminate(self):
        base = make_job()
        assert make_job(seed=2).content_hash() != base.content_hash()
        assert make_job(router="naive").content_hash() != base.content_hash()
        assert make_job(options={"seed": 7}).content_hash() != base.content_hash()
        other_arch = RoutingJob.from_circuit(base.circuit(), ring_architecture(5),
                                             router=base.router)
        assert other_arch.content_hash() != base.content_hash()

    def test_edge_order_is_canonicalised(self):
        job = make_job()
        shuffled = RoutingJob(qasm=job.qasm, arch_num_qubits=job.arch_num_qubits,
                              arch_edges=tuple(reversed([(b, a) for a, b in
                                                         job.arch_edges])),
                              router=job.router)
        assert shuffled.content_hash() == job.content_hash()

    def test_round_trip_preserves_circuit_and_architecture(self):
        job = make_job()
        circuit = job.circuit()
        assert circuit.num_qubits == 4
        assert circuit.num_two_qubit_gates == 8
        architecture = job.architecture()
        assert architecture.num_qubits == 5
        assert architecture.edges == line_architecture(5).edges


class TestQueue:
    def test_costliest_jobs_dispatch_first(self):
        small = make_job(seed=1, gates=4)
        large = make_job(seed=2, gates=24)
        medium = make_job(seed=3, gates=12)
        order = dispatch_order([small, large, medium])
        assert order == [1, 2, 0]

    def test_ties_preserve_submission_order(self):
        jobs = [make_job(seed=s, gates=10) for s in range(4)]
        assert dispatch_order(jobs) == [0, 1, 2, 3]

    def test_drain_empties_the_queue(self):
        """Dispatch order is a permutation: every job goes out exactly once."""
        jobs = [make_job(seed=s, gates=4 + 7 * (s % 3)) for s in range(7)]
        order = dispatch_order(jobs)
        assert sorted(order) == list(range(len(jobs)))
        assert dispatch_order([]) == []
