"""Cardinality and pseudo-Boolean encodings for the MaxSAT bound.

Two encoders are provided:

* :class:`Totalizer` -- the classic totalizer encoding for unweighted
  cardinality constraints ("at most k of these literals are true").
* :class:`GeneralizedTotalizer` -- the weighted generalisation (GTE), where
  each input literal carries a positive integer weight and the outputs encode
  "the total weight of true inputs is at least w".

Both are built once, their clauses written into one flat buffer and added
with a single :meth:`~repro.maxsat.wcnf.WcnfBuilder.add_flat` (so a live
solver ingests the whole structure in one call), and strengthened
monotonically by asserting unit clauses or assumptions on output literals,
which is how the linear MaxSAT search tightens its bound between
SAT calls.

The paper's "only one swap" constraint (Hard C) also uses a standard
at-most-one encoding, provided here as :func:`at_most_one_pairwise`,
:func:`at_most_one_commander` and :func:`exactly_one`.  The at-most-one
encodings are written by :func:`pairwise_amo_clauses` and
:func:`commander_amo_clauses` into flat clause lists, which is how the QMR
encoder batches a whole constraint family into one buffer; the
``builder`` forms wrap them.
"""

from __future__ import annotations

from array import array

from repro.maxsat.wcnf import WcnfBuilder


def pairwise_amo_clauses(out: list[int], literals: list[int]) -> list[int]:
    """Append pairwise at-most-one clauses over ``literals`` to ``out``.

    ``out`` is a flat clause list (each clause followed by a ``0``, the
    layout of :mod:`repro.sat.flat`); it is returned for chaining.
    """
    for index, first in enumerate(literals):
        negated = -first
        for second in literals[index + 1:]:
            out += (negated, -second, 0)
    return out


def commander_amo_clauses(out: list[int], literals: list[int], new_var,
                          group_size: int = 4) -> list[int]:
    """Append a commander (hierarchical) at-most-one encoding to ``out``.

    Linear in the number of literals, which matters for the larger "only one"
    constraints the QMR encoding produces on well-connected architectures.
    ``new_var`` allocates each group's commander variable.
    """
    if len(literals) <= group_size + 1:
        return pairwise_amo_clauses(out, literals)
    commanders: list[int] = []
    for start in range(0, len(literals), group_size):
        group = literals[start:start + group_size]
        commander = new_var()
        commanders.append(commander)
        pairwise_amo_clauses(out, group)
        # The commander is true iff some literal in its group is true.
        for literal in group:
            out += (-literal, commander, 0)
        out.append(-commander)
        out += group
        out.append(0)
    return commander_amo_clauses(out, commanders, new_var, group_size)


def at_most_one_pairwise(builder: WcnfBuilder, literals: list[int]) -> None:
    """Add pairwise at-most-one hard constraints over ``literals``."""
    builder.add_flat(array("i", pairwise_amo_clauses([], literals)))


def at_least_one(builder: WcnfBuilder, literals: list[int]) -> None:
    """Add an at-least-one hard constraint over ``literals``."""
    builder.add_hard(list(literals))


def exactly_one(builder: WcnfBuilder, literals: list[int]) -> None:
    """Add an exactly-one hard constraint (pairwise AMO + ALO)."""
    at_least_one(builder, literals)
    at_most_one_pairwise(builder, literals)


def at_most_one_commander(
    builder: WcnfBuilder, literals: list[int], group_size: int = 4
) -> None:
    """Commander at-most-one over ``literals`` (see :func:`commander_amo_clauses`)."""
    builder.add_flat(array("i", commander_amo_clauses(
        [], literals, builder.new_var, group_size)))


class Totalizer:
    """Totalizer encoding over a set of input literals.

    After construction, ``outputs[j]`` (0-based) is a literal that is true in
    every model in which at least ``j + 1`` of the inputs are true.  Asserting
    ``-outputs[k]`` therefore enforces "at most k inputs are true".
    """

    def __init__(self, builder: WcnfBuilder, inputs: list[int]) -> None:
        self.builder = builder
        self.inputs = list(inputs)
        if not inputs:
            self.outputs: list[int] = []
            return
        out: list[int] = []
        self.outputs = self._build(list(inputs), out)
        builder.add_flat(array("i", out))

    def _build(self, literals: list[int], out: list[int]) -> list[int]:
        if len(literals) == 1:
            return [literals[0]]
        mid = len(literals) // 2
        left = self._build(literals[:mid], out)
        right = self._build(literals[mid:], out)
        return self._merge(left, right, out)

    def _merge(self, left: list[int], right: list[int], out: list[int]) -> list[int]:
        new_var = self.builder.new_var
        total = len(left) + len(right)
        outputs = [new_var() for _ in range(total)]
        # sum(left) >= a and sum(right) >= b  implies  sum >= a + b
        for a in range(len(left) + 1):
            for b in range(len(right) + 1):
                if a + b == 0:
                    continue
                if a > 0:
                    out.append(-left[a - 1])
                if b > 0:
                    out.append(-right[b - 1])
                out += (outputs[a + b - 1], 0)
        # Monotonicity: outputs[j] implies outputs[j-1].
        for j in range(1, total):
            out += (-outputs[j], outputs[j - 1], 0)
        return outputs

    def enforce_at_most(self, bound: int) -> None:
        """Permanently assert that at most ``bound`` inputs are true."""
        if bound < 0:
            raise ValueError("bound must be non-negative")
        if bound >= len(self.outputs):
            return
        self.builder.add_hard([-self.outputs[bound]])

    def assumption_for_at_most(self, bound: int) -> list[int]:
        """Assumption literals enforcing "at most ``bound``" non-permanently."""
        if bound < 0:
            raise ValueError("bound must be non-negative")
        if bound >= len(self.outputs):
            return []
        return [-self.outputs[bound]]


class GeneralizedTotalizer:
    """Generalised totalizer (GTE) over weighted input literals.

    ``outputs`` maps each achievable total weight ``w`` (> 0) to a literal that
    is true whenever the total weight of true inputs is at least ``w``.
    """

    def __init__(self, builder: WcnfBuilder, weighted_inputs: list[tuple[int, int]]) -> None:
        self.builder = builder
        self.weighted_inputs = list(weighted_inputs)
        for literal, weight in self.weighted_inputs:
            if weight <= 0:
                raise ValueError(f"weights must be positive, got {weight} for {literal}")
        if not self.weighted_inputs:
            self.outputs: dict[int, int] = {}
            return
        out: list[int] = []
        self.outputs = self._build(self.weighted_inputs, out)
        builder.add_flat(array("i", out))

    def _build(self, pairs: list[tuple[int, int]], out: list[int]) -> dict[int, int]:
        if len(pairs) == 1:
            literal, weight = pairs[0]
            return {weight: literal}
        mid = len(pairs) // 2
        left = self._build(pairs[:mid], out)
        right = self._build(pairs[mid:], out)
        return self._merge(left, right, out)

    def _merge(self, left: dict[int, int], right: dict[int, int],
               out: list[int]) -> dict[int, int]:
        new_var = self.builder.new_var
        sums: set[int] = set(left) | set(right)
        for left_weight in left:
            for right_weight in right:
                sums.add(left_weight + right_weight)
        outputs = {weight: new_var() for weight in sorted(sums)}
        for left_weight, left_literal in left.items():
            out += (-left_literal, outputs[left_weight], 0)
        for right_weight, right_literal in right.items():
            out += (-right_literal, outputs[right_weight], 0)
        for left_weight, left_literal in left.items():
            for right_weight, right_literal in right.items():
                combined = left_weight + right_weight
                out += (-left_literal, -right_literal, outputs[combined], 0)
        # Monotonicity between consecutive achievable sums.
        ordered = sorted(outputs)
        for lower, upper in zip(ordered, ordered[1:]):
            out += (-outputs[upper], outputs[lower], 0)
        return outputs

    def enforce_weight_less_than(self, bound: int) -> None:
        """Permanently assert that the total weight of true inputs is < ``bound``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        for weight in sorted(self.outputs):
            if weight >= bound:
                self.builder.add_hard([-self.outputs[weight]])
                return  # monotonicity clauses handle the larger weights

    def assumptions_for_weight_less_than(self, bound: int) -> list[int]:
        """Assumption literals enforcing "total weight < ``bound``" non-permanently.

        Incremental sessions use this instead of
        :meth:`enforce_weight_less_than`: the bound holds only for the solve
        call that assumes it, so a later call on the same live solver can
        start from a clean (or different) bound.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        for weight in sorted(self.outputs):
            if weight >= bound:
                # Monotonicity clauses imply the larger weights stay false.
                return [-self.outputs[weight]]
        return []
