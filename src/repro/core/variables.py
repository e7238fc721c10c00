"""Boolean variable bookkeeping for the QMR encoding.

The encoding of Fig. 5 uses two families of variables:

* ``map(q, p, k)`` -- logical qubit ``q`` sits on physical qubit ``p`` right
  before the ``k``-th two-qubit gate (0-based step index here);
* ``swap(p, p', k, i)`` -- the ``i``-th SWAP slot before step ``k`` swaps the
  physical qubits ``p`` and ``p'``, with the synthetic "no-op edge"
  ``(p, p) = NOOP`` meaning no SWAP is performed in that slot.

:class:`VariableRegistry` hands out SAT variable indices for these on
demand and supports reverse lookup.  Once an encoding shape is fully
allocated, :meth:`VariableRegistry.freeze` condenses it into a
:class:`VariableLayout`: the encoder allocates every map row as consecutive
variables and every SWAP slot's choices (no-op first, then each edge) as
consecutive variables, so the whole numbering is one table of row starts
per step plus one base variable per slot.  Encodings and model extraction
read that layout.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field

from repro.maxsat.wcnf import WcnfBuilder

#: Marker used as the "edge" of a no-op SWAP (the paper's synthetic edge (p0, p0)).
NOOP: tuple[int, int] = (-1, -1)


@dataclass
class VariableRegistry:
    """Allocates and indexes ``map`` and ``swap`` variables in a WCNF builder."""

    builder: WcnfBuilder
    map_vars: dict[tuple[int, int, int], int] = field(default_factory=dict)
    swap_vars: dict[tuple[tuple[int, int], int, int], int] = field(default_factory=dict)
    _reverse_map: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    _reverse_swap: dict[int, tuple[tuple[int, int], int, int]] = field(default_factory=dict)
    #: ``(logical, step) -> [map(logical, p, step) for every p]``, cached.
    _rows: dict[tuple[int, int], list[int]] = field(default_factory=dict, repr=False)

    def map_var(self, logical: int, physical: int, step: int) -> int:
        """Variable for ``map(logical, physical, step)``, creating it if needed."""
        key = (logical, physical, step)
        if key not in self.map_vars:
            variable = self.builder.new_var()
            self.map_vars[key] = variable
            self._reverse_map[variable] = key
        return self.map_vars[key]

    def map_row(self, logical: int, step: int, num_physical: int) -> list[int]:
        """``map(logical, p, step)`` for ``p`` in ``range(num_physical)``.

        Missing variables are created in ``p`` order, exactly as calling
        :meth:`map_var` for each ``p`` would; the row is then cached, so hot
        encoder loops index a list instead of looking up every literal.
        """
        row = self._rows.get((logical, step))
        if row is None:
            row = [self.map_var(logical, physical, step)
                   for physical in range(num_physical)]
            self._rows[(logical, step)] = row
        return row

    def swap_var(self, edge: tuple[int, int], step: int, slot: int = 0) -> int:
        """Variable for ``swap(edge, step, slot)``; ``edge`` may be :data:`NOOP`."""
        if edge != NOOP:
            edge = (min(edge), max(edge))
        key = (edge, step, slot)
        if key not in self.swap_vars:
            variable = self.builder.new_var()
            self.swap_vars[key] = variable
            self._reverse_swap[variable] = key
        return self.swap_vars[key]

    def lookup_map(self, variable: int) -> tuple[int, int, int] | None:
        """Reverse lookup: which (logical, physical, step) a variable encodes."""
        return self._reverse_map.get(variable)

    def lookup_swap(self, variable: int) -> tuple[tuple[int, int], int, int] | None:
        """Reverse lookup: which (edge, step, slot) a variable encodes."""
        return self._reverse_swap.get(variable)

    @property
    def num_map_vars(self) -> int:
        return len(self.map_vars)

    @property
    def num_swap_vars(self) -> int:
        return len(self.swap_vars)

    def freeze(self, num_logical: int, num_physical: int,
               edges: tuple[tuple[int, int], ...],
               slots: list[tuple[int, int]]) -> "VariableLayout":
        """The compact layout of the rows and ``slots`` allocated so far.

        Every step that has a row must have one for each of the
        ``num_logical`` qubits, each created by :meth:`map_row` over
        ``num_physical`` qubits, and every slot's variables must follow the
        order no-op, then ``edges``; a numbering that is incomplete or not
        contiguous that way raises ``ValueError``.
        """
        starts: dict[int, array] = {}
        for (logical, step), row in self._rows.items():
            if row != list(range(row[0], row[0] + num_physical)):
                raise ValueError(f"map row ({logical}, {step}) is not contiguous")
            starts.setdefault(step, array("i", bytes(4 * num_logical)))[logical] = row[0]
        for step, row_starts in starts.items():
            if 0 in row_starts:
                raise ValueError(f"step {step} lacks the map row of logical "
                                 f"qubit {row_starts.index(0)}")
        bases = {}
        for step, slot in slots:
            base = self.swap_vars[(NOOP, step, slot)]
            if any(self.swap_vars.get((edge, step, slot)) != base + offset
                   for offset, edge in enumerate(edges, 1)):
                raise ValueError(f"slot ({step}, {slot}) is not contiguous")
            bases[(step, slot)] = base
        return VariableLayout(num_physical, edges, starts, bases)


class VariableLayout:
    """Read-only numbering of one encoding shape's ``map`` and ``swap`` variables.

    ``map(logical, physical, step)`` is ``row start + physical`` and
    ``swap(edge, step, slot)`` is the slot's no-op variable plus the edge's
    1-based position in the architecture's edge list.  Lookups of variables
    the shape never allocated raise ``KeyError``.  A layout is shared by
    every encoding replayed from the same template, so it is never mutated.
    """

    __slots__ = ("num_physical", "_row_starts", "_slot_bases", "_edge_offsets")

    def __init__(self, num_physical: int, edges: tuple[tuple[int, int], ...],
                 row_starts: dict[int, array],
                 slot_bases: dict[tuple[int, int], int]) -> None:
        self.num_physical = num_physical
        self._row_starts = row_starts
        self._slot_bases = slot_bases
        self._edge_offsets = {edge: offset
                              for offset, edge in enumerate(edges, 1)}

    def row_starts(self, step: int) -> array:
        """First variable of each logical qubit's ``map`` row at ``step``."""
        return self._row_starts[step]

    def map_var(self, logical: int, physical: int, step: int) -> int:
        """The variable of ``map(logical, physical, step)``."""
        starts = self._row_starts[step]
        if not (0 <= logical < len(starts) and 0 <= physical < self.num_physical):
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

    @property
    def nbytes(self) -> int:
        """Approximate memory held by the layout's own tables."""
        return (sys.getsizeof(self._row_starts) + sys.getsizeof(self._slot_bases)
                + sys.getsizeof(self._edge_offsets)
                + sum(sys.getsizeof(starts) for starts in self._row_starts.values()))
