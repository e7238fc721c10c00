"""Independent routing checker and per-job failure accounting.

The checker replays a routed circuit from its initial mapping and shares no
code with ``repro.core.verifier``: it tracks where every logical qubit sits,
applies each SWAP to that placement, requires every two-qubit gate to act on
a coupler of the device, and requires the non-SWAP gates, translated back to
logical qubits, to be an in-order execution of the input circuit (each gate
is the next unexecuted gate on every qubit it touches).

:func:`judge` turns one routing result into a verdict using the committed
reference: a job fails if it errored, ended unsolved, is a fallback-router
substitute, is rejected by the checker, or claims ``OPTIMAL`` above a cost
the reference knows to be achievable in the same model.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Notes markers the serving layers stamp on fallback-router substitutes.
FALLBACK_MARKERS = ("fallback=", "rescued after")


class CheckError(Exception):
    """A routed circuit is not a valid routing of its input."""


def _param_key(params) -> tuple:
    key = []
    for value in params:
        try:
            key.append(repr(float(value)))
        except (TypeError, ValueError):
            key.append(str(value).strip())
    return tuple(key)


def check_routing(original, routed, initial_mapping: dict, edges,
                  num_physical: int) -> int:
    """Validate ``routed`` against ``original``; returns the SWAPs counted.

    ``edges`` is an iterable of physical couplers.  Raises
    :class:`CheckError` describing the first violation.
    """
    couplers = {frozenset(edge) for edge in edges}
    expected = [(name, tuple(qubits), _param_key(params))
                for name, qubits, params in original.iter_ops()]
    per_qubit: dict[int, list[int]] = {}
    for index, (_, qubits, _) in enumerate(expected):
        for qubit in qubits:
            per_qubit.setdefault(qubit, []).append(index)
    cursor = {qubit: 0 for qubit in per_qubit}

    missing = [qubit for qubit in per_qubit if qubit not in initial_mapping]
    if missing:
        raise CheckError(f"initial mapping leaves logical qubits {missing} unplaced")
    occupant: dict[int, int] = {}
    for logical, physical in initial_mapping.items():
        if not 0 <= physical < num_physical:
            raise CheckError(f"logical {logical} placed on missing physical {physical}")
        if physical in occupant:
            raise CheckError(f"physical {physical} holds two logical qubits")
        occupant[physical] = logical

    swaps = 0
    executed = 0
    for position, (name, qubits, params) in enumerate(routed.iter_ops()):
        if len(qubits) == 2 and frozenset(qubits) not in couplers:
            raise CheckError(f"op {position} ({name}) on uncoupled pair {tuple(qubits)}")
        if name == "swap":
            first, second = qubits
            a, b = occupant.pop(first, None), occupant.pop(second, None)
            if a is not None:
                occupant[second] = a
            if b is not None:
                occupant[first] = b
            swaps += 1
            continue
        try:
            logical = tuple(occupant[physical] for physical in qubits)
        except KeyError:
            raise CheckError(f"op {position} ({name}) touches an empty "
                             f"physical qubit in {tuple(qubits)}") from None
        op = (name, logical, _param_key(params))
        for qubit in logical:
            order = per_qubit.get(qubit, [])
            step = cursor.get(qubit, 0)
            if step >= len(order) or expected[order[step]] != op:
                raise CheckError(f"op {position} {op} is not the next gate on "
                                 f"logical qubit {qubit}")
        # Cursors only ever advance together over one gate's qubits, so a
        # match on every qubit is a match with one and the same input gate.
        for qubit in logical:
            cursor[qubit] += 1
        executed += 1
    if executed != len(expected):
        raise CheckError(f"routed circuit executes {executed} of "
                         f"{len(expected)} input gates")
    return swaps


@dataclass
class Verdict:
    """The outcome of one job, as the benchmark counts it."""

    ok: bool
    #: ``""`` when ok, else one of error / unsolved / fallback / checker /
    #: wrong-optimal.
    reason: str = ""
    swaps: int = 0
    #: ``True`` when the job claimed ``OPTIMAL`` and its cost equals the
    #: reference optimum.
    optimal_match: bool = False
    detail: str = ""

    @property
    def valid(self) -> bool:
        """A routing came back and passed the checker (its claim may be wrong)."""
        return self.ok or self.reason == "wrong-optimal"


def judge(result, circuit, arch, reference: dict, error: str | None = None) -> Verdict:
    """Classify one job's result against the checker and its reference entry."""
    if error is not None:
        return Verdict(False, "error", detail=error)
    if result is None:
        return Verdict(False, "error", detail="no result")
    status = getattr(result.status, "value", str(result.status))
    if status not in ("optimal", "feasible") or result.routed_circuit is None:
        return Verdict(False, "unsolved", detail=f"status {status}: {result.notes}")
    if any(marker in (result.notes or "") for marker in FALLBACK_MARKERS):
        return Verdict(False, "fallback", detail=result.notes)
    try:
        counted = check_routing(circuit, result.routed_circuit,
                                result.initial_mapping, arch.edges,
                                arch.num_qubits)
    except CheckError as failure:
        return Verdict(False, "checker", detail=str(failure))
    if counted != result.swap_count:
        return Verdict(False, "checker",
                       detail=f"reports {result.swap_count} SWAPs, "
                              f"replay counts {counted}")
    claimed = status == "optimal"
    known = reference.get("optimum", reference.get("bound"))
    if claimed and known is not None and counted > known:
        return Verdict(False, "wrong-optimal", swaps=counted,
                       detail=f"OPTIMAL with {counted} SWAPs, reference "
                              f"{'optimum' if 'optimum' in reference else 'bound'} "
                              f"{known}")
    return Verdict(True, swaps=counted,
                   optimal_match=claimed and reference.get("optimum") == counted)
