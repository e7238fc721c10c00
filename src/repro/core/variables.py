"""Boolean variable numbering for the QMR encoding.

The encoding of Fig. 5 uses two families of variables:

* ``map(q, p, k)`` -- logical qubit ``q`` sits on physical qubit ``p`` right
  before the ``k``-th two-qubit gate (0-based step index here);
* ``swap(p, p', k, i)`` -- the ``i``-th SWAP slot before step ``k`` swaps the
  physical qubits ``p`` and ``p'``, with the synthetic "no-op edge"
  ``(p, p) = NOOP`` meaning no SWAP is performed in that slot.

:class:`VariableLayout` is the one numbering of both.  While a template is
built, :meth:`VariableLayout.row` allocates every map row as consecutive
variables and :meth:`VariableLayout.slot` every SWAP slot's choices (no-op
first, then each edge) as consecutive variables, so the whole numbering is
one table of row starts per step plus one base variable per slot.
Encodings and model extraction read that layout.
"""

from __future__ import annotations

import sys
from array import array

from repro.maxsat.wcnf import WcnfBuilder

#: Marker used as the "edge" of a no-op SWAP (the paper's synthetic edge (p0, p0)).
NOOP: tuple[int, int] = (-1, -1)


class VariableLayout:
    """Numbering of one encoding shape's ``map`` and ``swap`` variables.

    ``map(logical, physical, step)`` is ``row start + physical`` and
    ``swap(edge, step, slot)`` is the slot's no-op variable plus the edge's
    1-based position in the architecture's edge list.  Lookups of variables
    the shape never allocated raise ``KeyError``.  Only the template build
    calls the allocators :meth:`row` and :meth:`slot`; a finished layout is
    shared by every encoding replayed from the same template, so it is never
    mutated again.
    """

    __slots__ = ("num_logical", "num_physical", "edges", "_row_starts",
                 "_slot_bases", "_edge_offsets")

    def __init__(self, num_logical: int, num_physical: int,
                 edges: tuple[tuple[int, int], ...]) -> None:
        self.num_logical = num_logical
        self.num_physical = num_physical
        self.edges = edges
        #: step -> first variable of each logical qubit's row (0: unallocated).
        self._row_starts: dict[int, array] = {}
        self._slot_bases: dict[tuple[int, int], int] = {}
        self._edge_offsets = {edge: offset
                              for offset, edge in enumerate(edges, 1)}

    # -------------------------------------------------------------- build

    def row(self, builder: WcnfBuilder, logical: int, step: int) -> range:
        """``map(logical, p, step)`` for every ``p``, allocated on first use."""
        starts = self._row_starts.get(step)
        if starts is None:
            starts = self._row_starts[step] = array("i", bytes(4 * self.num_logical))
        if not starts[logical]:
            starts[logical] = _allocate(builder, self.num_physical).start
        return range(starts[logical], starts[logical] + self.num_physical)

    def slot(self, builder: WcnfBuilder, step: int, slot: int) -> range:
        """A fresh slot's choice variables: the no-op, then every edge."""
        choices = _allocate(builder, 1 + len(self.edges))
        self._slot_bases[(step, slot)] = choices.start
        return choices

    # --------------------------------------------------------------- read

    def row_starts(self, step: int) -> array:
        """First variable of each logical qubit's ``map`` row at ``step``."""
        return self._row_starts[step]

    def map_var(self, logical: int, physical: int, step: int) -> int:
        """The variable of ``map(logical, physical, step)``."""
        starts = self._row_starts[step]
        if not (0 <= logical < len(starts) and 0 <= physical < self.num_physical
                and starts[logical]):
            raise KeyError((logical, physical, step))
        return starts[logical] + physical

    def slot_base(self, step: int, slot: int = 0) -> int:
        """The no-op variable of a slot; its edge variables follow it."""
        return self._slot_bases[(step, slot)]

    def swap_var(self, edge: tuple[int, int], step: int, slot: int = 0) -> int:
        """The variable of ``swap(edge, step, slot)``; ``edge`` may be :data:`NOOP`."""
        base = self._slot_bases[(step, slot)]
        if edge == NOOP:
            return base
        return base + self._edge_offsets[(min(edge), max(edge))]

    def lookup_map(self, variable: int) -> tuple[int, int, int] | None:
        """Reverse lookup: the ``(logical, physical, step)`` a variable encodes."""
        for step, starts in self._row_starts.items():
            for logical, start in enumerate(starts):
                if start and 0 <= variable - start < self.num_physical:
                    return logical, variable - start, step
        return None

    def lookup_swap(self, variable: int) -> tuple[tuple[int, int], int, int] | None:
        """Reverse lookup: the ``(edge, step, slot)`` a variable encodes."""
        for (step, slot), base in self._slot_bases.items():
            offset = variable - base
            if 0 <= offset <= len(self.edges):
                return (self.edges[offset - 1] if offset else NOOP), step, slot
        return None

    @property
    def nbytes(self) -> int:
        """Approximate memory held by the layout's own tables."""
        return (sys.getsizeof(self._row_starts) + sys.getsizeof(self._slot_bases)
                + sys.getsizeof(self._edge_offsets)
                + sum(sys.getsizeof(starts) for starts in self._row_starts.values()))


def _allocate(builder: WcnfBuilder, count: int) -> range:
    """``count`` fresh, consecutive variables of ``builder``."""
    first = builder.num_vars + 1
    builder.new_vars(count)
    return range(first, first + count)
