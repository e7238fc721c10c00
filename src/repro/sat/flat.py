"""Flat clause buffers: many clauses in one zero-terminated int32 array.

A flat buffer holds clauses back to back, each followed by a ``0``
terminator -- the DIMACS body without the line breaks, e.g.
``array('i', [1, -2, 0, 3, 0])`` is the two clauses ``(1 | -2)`` and
``(3)``.  Encoders write whole constraint families into one such buffer,
and a solver (either backend of :func:`repro.sat.create_solver`) ingests it
through ``add_flat``, so a family costs one call into the solve core instead of
one per clause.

Buffers are checked once, as a whole, before any clause is ingested:
anything that is not a one-dimensional buffer of C ``int`` raises
``TypeError``; an empty clause (a ``0`` with no literals before it) or a
missing final terminator raises ``ValueError``; a literal beyond
:data:`LITERAL_LIMIT` raises ``OverflowError``.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.sat._native import load_core

#: Largest variable index a literal may name (the native core's bound).
LITERAL_LIMIT = (2**31 - 1) // 2


def scan_flat(buffer) -> tuple[int, int]:
    """Validate a flat buffer; return ``(clause count, largest variable)``.

    Runs in the native core when it is available, so checking a buffer
    costs far less than building it.
    """
    core = load_core()
    if core is not None:
        return core.scan_flat(buffer)
    try:
        view = memoryview(buffer)
    except TypeError:
        raise TypeError("flat clauses must be an int32 buffer such as "
                        f"array('i'), not {type(buffer).__name__}") from None
    if view.ndim != 1 or view.itemsize != 4 or view.format not in ("i", "@i", "=i"):
        raise TypeError("flat clauses must be an int32 buffer such as "
                        f"array('i'), not format {view.format!r}")
    clauses = largest = previous = 0
    for literal in view:
        if literal == 0:
            if previous == 0:
                raise ValueError("flat clause buffers may not hold an empty clause")
            clauses += 1
        elif literal > largest or -literal > largest:
            largest = literal if literal > 0 else -literal
        previous = literal
    if previous != 0:
        raise ValueError("flat clause buffer must end with a 0 terminator")
    if largest > LITERAL_LIMIT:
        raise OverflowError("literal out of range")
    return clauses, largest


def iter_clauses(buffer) -> Iterator[list[int]]:
    """Decode a (valid) flat buffer into one literal list per clause."""
    clause: list[int] = []
    for literal in buffer:
        if literal:
            clause.append(literal)
        else:
            yield clause
            clause = []


__all__ = ["LITERAL_LIMIT", "iter_clauses", "scan_flat"]
