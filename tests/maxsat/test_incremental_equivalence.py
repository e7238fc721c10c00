"""Incremental-equivalence tests for the MaxSAT layer.

Reusing one MaxSatSolver (one live CDCL solver, streamed clauses,
assumption-expressed bounds) must return the same costs and verdicts as
solving on a fresh one, on randomized WCNF instances -- including when one
solver serves several solves, which is what the slicing relaxation does on
a backtrack.
"""

import random

import pytest

from repro.maxsat.solver import MaxSatSolver, MaxSatStatus
from repro.maxsat.wcnf import WcnfBuilder
from repro.sat.backends import native_available


def random_wcnf(rng: random.Random, weighted: bool) -> WcnfBuilder:
    """A small random weighted-partial instance (hard clauses kept SAT-ish)."""
    builder = WcnfBuilder()
    num_vars = rng.randint(4, 9)
    builder.new_vars(num_vars)
    for _ in range(rng.randint(3, 18)):
        width = rng.randint(2, 3)
        variables = rng.sample(range(1, num_vars + 1), width)
        builder.add_hard([v if rng.random() < 0.5 else -v for v in variables])
    for _ in range(rng.randint(1, 8)):
        width = rng.randint(1, 2)
        variables = rng.sample(range(1, num_vars + 1), width)
        clause = [v if rng.random() < 0.5 else -v for v in variables]
        builder.add_soft(clause, weight=rng.randint(1, 5) if weighted else 1)
    return builder


def clone(builder: WcnfBuilder) -> WcnfBuilder:
    copy = WcnfBuilder()
    copy.new_vars(builder.num_vars)
    for clause in builder.to_dimacs().hard:
        copy.add_hard(list(clause))
    for soft in builder.soft:
        copy.add_soft(list(soft.literals), soft.weight)
    return copy


class TestSessionMatchesFromScratch:
    def test_linear_search_costs_match(self):
        for seed in range(15):
            rng = random.Random(300 + seed)
            weighted = seed % 2 == 0
            reference = random_wcnf(rng, weighted)
            scratch = MaxSatSolver().solve(clone(reference))
            # A second run on the warm solver reuses the selectors, the
            # bound structure and everything the first run learnt.
            warm = MaxSatSolver()
            builder = clone(reference)
            warm.solve(builder)
            incremental = warm.solve(builder)
            assert scratch.has_model == incremental.has_model, f"seed {seed}"
            if scratch.has_model:
                assert scratch.cost == incremental.cost, f"seed {seed}"
                assert scratch.status == incremental.status, f"seed {seed}"

    def test_facade_statuses_match(self):
        """A solve under assumptions leaves no trace on the next plain solve."""
        for seed in range(8):
            rng = random.Random(900 + seed)
            reference = random_wcnf(rng, weighted=False)
            scratch = MaxSatSolver().solve(clone(reference))
            solver = MaxSatSolver()
            builder = clone(reference)
            solver.solve(builder, assumptions=[1, -2])
            incremental = solver.solve(builder)
            assert scratch.status is incremental.status, f"seed {seed}"
            if scratch.has_model:
                assert scratch.cost == incremental.cost, f"seed {seed}"

    def test_session_reuse_across_repeated_solves(self):
        """Re-solving on one warm solver matches a fresh from-scratch solve."""
        for seed in range(10):
            rng = random.Random(4000 + seed)
            reference = random_wcnf(rng, weighted=seed % 2 == 0)
            solver = MaxSatSolver()
            builder = clone(reference)
            first = solver.solve(builder)
            second = solver.solve(builder)  # same instance, warm solver
            scratch = MaxSatSolver().solve(clone(reference))
            assert first.status is scratch.status, f"seed {seed}"
            assert second.status is scratch.status, f"seed {seed}"
            if scratch.has_model:
                assert first.cost == second.cost == scratch.cost, f"seed {seed}"

    def test_assumption_pinning_matches_hard_units(self):
        """Pinning context via assumptions == baking it in as hard units."""
        for seed in range(10):
            rng = random.Random(5000 + seed)
            reference = random_wcnf(rng, weighted=False)
            pin = [v if rng.random() < 0.5 else -v
                   for v in rng.sample(range(1, reference.num_vars + 1),
                                       min(2, reference.num_vars))]
            hard_pinned = clone(reference)
            for literal in pin:
                hard_pinned.add_hard([literal])
            scratch = MaxSatSolver().solve(hard_pinned)
            incremental = MaxSatSolver().solve(
                clone(reference), assumptions=pin)
            assert scratch.status is incremental.status, f"seed {seed} pin {pin}"
            if scratch.has_model:
                assert scratch.cost == incremental.cost, f"seed {seed} pin {pin}"

    def test_exclusion_resolve_on_warm_session(self):
        """The slicing backtrack pattern: add an exclusion clause, re-solve."""
        for seed in range(6):
            rng = random.Random(6000 + seed)
            reference = random_wcnf(rng, weighted=False)
            solver = MaxSatSolver()
            builder = clone(reference)
            first = solver.solve(builder)
            if not first.has_model:
                continue
            # Forbid the exact model found (over the original variables).
            exclusion = [-v if first.model.get(v, False) else v
                         for v in range(1, reference.num_vars + 1)]
            builder.add_hard(exclusion)
            warm = solver.solve(builder)
            cold_builder = clone(reference)
            cold_builder.add_hard(list(exclusion))
            cold = MaxSatSolver().solve(cold_builder)
            assert warm.status is cold.status, f"seed {seed}"
            if cold.has_model:
                assert warm.cost == cold.cost, f"seed {seed}"


class TestSessionBinding:
    def test_session_backed_facade_rejects_a_second_builder(self):
        solver = MaxSatSolver()
        first = WcnfBuilder()
        a = first.new_var()
        first.add_hard([a])
        solver.solve(first)
        second = WcnfBuilder()
        b = second.new_var()
        second.add_hard([-b])
        with pytest.raises(ValueError):
            solver.solve(second)
        # The original binding keeps working.
        assert solver.solve(first).has_model


class TestStreamingFromTheBuilder:
    def test_a_second_solve_streams_exactly_the_new_clause(self):
        builder = WcnfBuilder()
        builder.add_hard([1, 2])
        builder.add_hard([-1, 3])
        builder.add_soft([-2])
        builder.add_soft([-3])
        solver = MaxSatSolver()
        assert solver.solve(builder).cost == 1
        streamed = solver.clauses_streamed
        session = solver.session
        buffers = []
        original = session.add_flat

        def recording_add_flat(buffer):
            buffers.append(list(buffer))
            return original(buffer)

        session.add_flat = recording_add_flat
        builder.add_hard([-1])
        second = solver.solve(builder)
        assert buffers == [[-1, 0]]
        assert solver.clauses_streamed == streamed + 1
        assert second.is_optimal and second.model[1] is False


class TestBudgetInsideSelectorConstruction:
    def test_zero_budget_returns_cleanly_before_selectors(self):
        builder = WcnfBuilder()
        variables = builder.new_vars(40)
        builder.add_hard([variables[0], variables[1]])
        for v in variables:
            builder.add_soft([v, -variables[0]])
        result = MaxSatSolver().solve(builder, time_budget=0.0)
        # The selector loop must notice the dead budget and give up cleanly
        # instead of relaxing every soft clause first.
        assert result.status is MaxSatStatus.UNKNOWN
        assert result.sat_calls == 0
        assert result.cost == -1

    def test_selector_loop_leaves_solver_reusable(self):
        builder = WcnfBuilder()
        variables = builder.new_vars(10)
        builder.add_hard([variables[0]])
        for v in variables[1:]:
            builder.add_soft([v], weight=1)
        solver = MaxSatSolver()
        dead = solver.solve(builder, time_budget=0.0)
        assert not dead.has_model
        # A later call with a real budget still works on the same solver.
        alive = solver.solve(builder)
        assert alive.is_optimal
        assert alive.cost == 0


def weighted_pair() -> WcnfBuilder:
    """Two conflicting soft clauses: one unit, one binary (cost 1)."""
    builder = WcnfBuilder()
    builder.new_vars(3)
    builder.add_hard([-1, -2])
    builder.add_soft([1])
    builder.add_soft([2, 3])
    builder.add_soft([-3])
    return builder


class TestSoftSetIsFixedOnceBounded:
    def test_a_soft_clause_added_after_the_bound_is_rejected(self):
        builder = weighted_pair()
        solver = MaxSatSolver()
        assert solver.solve(builder).cost == 1
        builder.add_soft([-1])
        with pytest.raises(ValueError, match="soft clauses"):
            solver.solve(builder)

    def test_a_shrunk_soft_set_is_rejected(self):
        builder = weighted_pair()
        solver = MaxSatSolver()
        assert solver.solve(builder).cost == 1
        builder.soft.pop()
        with pytest.raises(ValueError, match="soft clauses"):
            solver.solve(builder)


@pytest.mark.parametrize("backend", [
    "python",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="compiled SAT core not built")),
])
def test_clauses_streamed_counts_hard_clauses_and_relaxations(backend):
    builder = weighted_pair()
    solver = MaxSatSolver(backend=backend)
    assert solver.clauses_streamed == 0
    assert solver.solve(builder).cost == 1
    # Every hard clause of the builder (the instance's one plus the
    # totalizer's) and one relaxation clause for the one binary soft clause.
    assert solver.clauses_streamed == builder.num_hard + 1
    builder.add_hard([3])
    solver.solve(builder)
    assert solver.clauses_streamed == builder.num_hard + 1
    sat = solver.session
    assert sat.solver_stats() == sat.stats.as_dict()
    assert sat.solver_stats()["backend"] == backend
