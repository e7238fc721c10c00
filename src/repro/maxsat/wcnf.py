"""Weighted partial CNF construction helpers.

:class:`WcnfBuilder` is the object the SATMAP encoder populates: it owns the
variable counter, the hard clauses, and the weighted soft clauses, and it can
be converted to the DIMACS containers in :mod:`repro.sat.dimacs`.

Hard clauses live in a list of flat segments: zero-terminated
``array('i')`` buffers (the format of :mod:`repro.sat.flat`), in insertion
order, plus a clause count.  Encoders append whole constraint families with
:meth:`~WcnfBuilder.add_flat`, which validates the buffer once and keeps a
*reference* to an ``array`` rather than a copy -- so an encoding replayed
from a shared template holds its gate-independent clauses once per
process, not once per encoding.  A buffer handed to ``add_flat`` must not
be modified afterwards.  Single clauses (exclusion clauses) go through
:meth:`~WcnfBuilder.add_hard`, which appends to a segment the builder owns.

The builder is a plain store: it never talks to a solver.  Readers feed a
solver with :meth:`~WcnfBuilder.stream_hard`, one ``add_flat`` call per
stored segment, and resume from the word offset it returns, so each clause
reaches a live solver exactly once however often the store grows between
solves.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.sat.dimacs import WcnfFormula
from repro.sat.flat import LITERAL_LIMIT, iter_clauses, scan_flat


@dataclass
class SoftClause:
    """A soft clause with a positive integer weight."""

    literals: list[int]
    weight: int = 1


@dataclass
class WcnfBuilder:
    """Incrementally built weighted partial MaxSAT instance."""

    num_vars: int = 0
    soft: list[SoftClause] = field(default_factory=list)
    #: Every hard clause, zero-terminated, in insertion order, split into
    #: the segments the clauses arrived in.  Append through
    #: :meth:`add_hard` / :meth:`add_flat`; read through :meth:`to_dimacs`
    #: or :meth:`stream_hard`.
    _segments: list[array] = field(default_factory=list, repr=False)
    #: The last segment when the builder owns it: :meth:`add_hard` appends
    #: there.  ``None`` after a shared buffer, which is never modified.
    _tail: array | None = field(default=None, repr=False, compare=False)
    _num_words: int = field(default=0, repr=False)
    _num_hard: int = field(default=0, repr=False)

    def new_var(self) -> int:
        """Allocate a fresh Boolean variable and return its index."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_var() for _ in range(count)]

    def add_hard(self, clause: list[int]) -> None:
        """Add a hard clause (must be satisfied by every solution)."""
        self._validate(clause)
        tail = self._tail
        if tail is None:
            tail = self._tail = array("i")
            self._segments.append(tail)
        tail.extend(clause)
        tail.append(0)
        self._num_words += len(clause) + 1
        self._num_hard += 1

    def add_flat(self, buffer) -> int:
        """Add a zero-terminated int32 buffer of hard clauses; return their count.

        The buffer is validated once, as a whole (see :mod:`repro.sat.flat`),
        and :meth:`stream_hard` hands it on in a single ``add_flat`` call.  An
        ``array`` is stored by reference, so it must not be modified
        afterwards; any other buffer is copied.
        """
        count, largest = scan_flat(buffer)
        if not count:
            return 0
        if largest > self.num_vars:
            self.num_vars = largest
        if type(buffer) is not array:
            segment = array("i")
            segment.frombytes(memoryview(buffer).cast("B"))
            buffer = segment
        self._segments.append(buffer)
        self._tail = None
        self._num_words += len(buffer)
        self._num_hard += count
        return count

    def add_soft(self, clause: list[int], weight: int = 1) -> None:
        """Add a soft clause with the given positive integer weight."""
        if weight <= 0:
            raise ValueError(f"soft clause weight must be positive, got {weight}")
        self._validate(clause)
        self.soft.append(SoftClause(list(clause), weight))

    def _validate(self, clause: list[int]) -> None:
        if not clause:
            raise ValueError("clauses must be non-empty")
        for literal in clause:
            if literal == 0:
                raise ValueError("0 is not a valid literal")
            magnitude = abs(literal)
            if magnitude > self.num_vars:
                if magnitude > LITERAL_LIMIT:
                    raise OverflowError("literal out of range")
                self.num_vars = magnitude

    # ------------------------------------------------------------ streaming

    def stream_hard(self, target, start: int = 0) -> int:
        """Feed the hard clauses from word ``start`` on into ``target``.

        ``target`` is anything with ``ensure_vars`` and ``add_flat`` (a
        solver of either backend); it receives one ``add_flat`` call per
        stored segment.  Returns the end offset, which a caller passes back
        as ``start`` to feed only the clauses added since.
        """
        target.ensure_vars(self.num_vars)
        offset = 0
        for segment in self._segments:
            end = offset + len(segment)
            if end > start:
                if start > offset or segment is self._tail:
                    # A partial segment, or one later add_hard calls grow:
                    # hand over a copy.
                    segment = segment[max(0, start - offset):]
                target.add_flat(segment)
            offset = end
        return offset

    # -------------------------------------------------------------- queries

    @property
    def total_soft_weight(self) -> int:
        return sum(soft.weight for soft in self.soft)

    @property
    def num_hard(self) -> int:
        return self._num_hard

    @property
    def hard_words(self) -> int:
        """Length of the hard clauses in flat words (a :meth:`stream_hard` offset)."""
        return self._num_words

    @property
    def num_soft(self) -> int:
        return len(self.soft)

    def is_weighted(self) -> bool:
        """Return ``True`` if the soft clauses do not all share weight 1."""
        return any(soft.weight != 1 for soft in self.soft)

    def to_dimacs(self) -> WcnfFormula:
        """Convert to the DIMACS WCNF container (for export / debugging)."""
        formula = WcnfFormula(num_vars=self.num_vars)
        for segment in self._segments:
            for clause in iter_clauses(segment):
                formula.add_hard(clause)
        for soft in self.soft:
            formula.add_soft(soft.literals, soft.weight)
        return formula

    def cost_of_model(self, model: Mapping[int, bool]) -> int:
        """Total weight of soft clauses falsified by ``model``."""
        cost = 0
        for soft in self.soft:
            if not clause_satisfied(soft.literals, model):
                cost += soft.weight
        return cost


def clause_satisfied(clause: list[int], model: Mapping[int, bool]) -> bool:
    """Return ``True`` if ``model`` satisfies ``clause`` (missing vars are False)."""
    for literal in clause:
        value = model.get(abs(literal), False)
        if literal > 0 and value:
            return True
        if literal < 0 and not value:
            return True
    return False
