"""Workload definitions: which circuits, on which device, through which router.

Every circuit is generated from a fixed per-circuit seed, so the committed
reference (``reference.json``) can hold an answer for each one.  The run's
``--seed`` decides the order jobs are issued in and, for the served
workloads, which circuits are first-time solves, repeats, or concurrent
cross-client duplicates.  The circuit *set* of a run does not depend on the
seed, so ``swaps_total`` and the reference checks compare across seeds.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property

from repro.analysis.suite import small_suite
from repro.circuits.qasm import circuit_to_qasm
from repro.circuits.random_circuits import random_circuit
from repro.hardware.devices import named_architectures

#: Pool of first-time circuits the served workloads draw from.
SERVED_POOL_SIZE = 640
#: Served workloads issue this many distinct circuits per measured second
#: (sized so a run on a 2-CPU host lasts about ``--seconds``).
SERVED_UNIQUE_PER_SECOND = {"gateway-mixed": 30.0, "fleet-mixed": 27.0}
#: Share of served circuits submitted by both clients in the same round.
SERVED_DUP_SHARE = 0.25
#: A repeat is issued at least this many single jobs after its first
#: submission, so the gateway's record table (``max_records``) has turned
#: over and the repeat is answered by the result cache.
REPEAT_GAP = 64
#: Finished job records a served gateway keeps (see ``REPEAT_GAP``).
SERVED_MAX_RECORDS = 8


@dataclass(frozen=True)
class Circuit:
    """One workload circuit with its architecture name and reference key."""

    label: str
    arch: str
    circuit: object

    @cached_property
    def digest(self) -> str:
        return circuit_digest(self.circuit, self.arch)


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    #: Router spec string every job of the workload runs.
    spec: str
    #: ``"direct"``: ``route()`` in-process; ``"gateway"`` / ``"fleet"``:
    #: served over HTTP by two closed-loop clients.  Why each workload
    #: exists is recorded in ``BENCHMARK.json``.
    mode: str


WORKLOADS = {
    "tokyo-sliced": Workload(
        "tokyo-sliced", "tokyo",
        "satmap:slice_size=10,solver_backend=native,time_budget=120",
        "direct"),
    "tokyo8-optimal": Workload(
        "tokyo8-optimal", "tokyo8",
        "nl-satmap:solver_backend=native,time_budget=30",
        "direct"),
    "gateway-mixed": Workload(
        "gateway-mixed", "tokyo8",
        "satmap:slice_size=10,solver_backend=native",
        "gateway"),
    "fleet-mixed": Workload(
        "fleet-mixed", "tokyo8",
        "satmap:slice_size=10,solver_backend=native",
        "fleet"),
}

#: (qubits, two-qubit gates, circuit seed) of the tokyo-sliced circuits.
TOKYO_SLICED_SHAPES = ((10, 100, 1), (12, 150, 2), (16, 200, 4))
#: Seconds one pass of a direct workload takes on a quiet 2-CPU host; a run
#: makes ``--seconds`` worth of passes, at least two, so every run of a
#: workload routes the same number of jobs whatever the host's speed.
DIRECT_PASS_SECONDS = {"tokyo-sliced": 10.0, "tokyo8-optimal": 4.7}


def architecture(name: str):
    return named_architectures()[name]


def circuit_digest(circuit, arch: str) -> str:
    """Reference key: the architecture name plus the circuit's QASM text."""
    text = f"{arch}\n{circuit_to_qasm(circuit)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def served_pool() -> list[Circuit]:
    return [Circuit(f"mix_{index:03d}", "tokyo8",
                    random_circuit(5, 20, seed=1000 + index,
                                   interaction_bias=0.5,
                                   name=f"mix_{index:03d}"))
            for index in range(SERVED_POOL_SIZE)]


def circuits(name: str) -> list[Circuit]:
    """Every circuit the workload may route, in canonical order."""
    if name == "tokyo-sliced":
        return [Circuit(f"tokyo_q{q}_g{g}_s{s}", "tokyo",
                        random_circuit(q, g, seed=s, interaction_bias=0.5,
                                       name=f"tokyo_q{q}_g{g}_s{s}"))
                for q, g, s in TOKYO_SLICED_SHAPES]
    if name == "tokyo8-optimal":
        # The suite's 5-6 qubit half plus its largest tiny circuit.  The
        # other tiny_* circuits route in a few milliseconds, where scheduler
        # jitter swamps the routing time; an odd count keeps the median job
        # one circuit's middle sample instead of an average of two circuits.
        return [Circuit(bench.name, "tokyo8", bench.circuit)
                for bench in small_suite()
                if bench.name.startswith("small_") or bench.name == "tiny_11_q5_g24"]
    if name in ("gateway-mixed", "fleet-mixed"):
        return served_pool()
    raise KeyError(name)


def warmup_circuit(name: str) -> Circuit:
    """A circuit outside every workload set, routed once during set-up."""
    workload = WORKLOADS[name]
    qubits = 6 if workload.arch == "tokyo" else 4
    return Circuit("warmup", workload.arch,
                   random_circuit(qubits, 12, seed=987_654,
                                  interaction_bias=0.5, name="warmup"))


def pass_order(circuit_list: list[Circuit], seed: int, index: int) -> list[Circuit]:
    """A direct workload's job order for pass ``index`` of a run."""
    order = list(circuit_list)
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order


def direct_pass_count(name: str, seconds: float) -> int:
    return max(2, int(seconds // DIRECT_PASS_SECONDS[name]))


def served_unique_count(name: str, seconds: float) -> int:
    """Distinct circuits one served run issues for ``seconds`` of measuring."""
    wanted = round(SERVED_UNIQUE_PER_SECOND[name] * seconds)
    return max(4, min(SERVED_POOL_SIZE, wanted))


def served_rounds(pool: list[Circuit], unique: int,
                  seed: int) -> list[tuple[Circuit, Circuit]]:
    """The closed-loop stream: one ``(client 0 job, client 1 job)`` per round.

    The first ``unique`` pool circuits each appear exactly twice:

    * a *dup* circuit is sent by both clients in the same round (one solve,
      one job joining it);
    * every other circuit is sent once as a first-time job and once as a
      repeat, at least :data:`REPEAT_GAP` single jobs later.

    So half the jobs are first-time solves.  The seed picks which circuits
    are dups and the order of everything.
    """
    rng = random.Random(seed)
    chosen = list(pool[:unique])
    rng.shuffle(chosen)
    dup_count = int(unique * SERVED_DUP_SHARE)
    dups, singles = chosen[:dup_count], chosen[dup_count:]
    sequence: list[Circuit] = []
    for index, circuit in enumerate(singles):
        sequence.append(circuit)
        if index >= REPEAT_GAP:
            sequence.append(singles[index - REPEAT_GAP])
    sequence.extend(singles[max(0, len(singles) - REPEAT_GAP):])
    rounds = [(sequence[i], sequence[i + 1])
              for i in range(0, len(sequence), 2)]
    for dup in dups:
        rounds.insert(rng.randrange(len(rounds) + 1), (dup, dup))
    return rounds
