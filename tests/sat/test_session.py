"""Tests for one long-lived solver reused across solve calls.

The heart of the incremental solve path is an equivalence claim: solving
through one long-lived solver must return the same SAT/UNSAT verdicts as
solving every instance from scratch.  These tests check that claim
property-style on randomized CNF instances, plus the core-extraction
behaviour the MaxSAT layer depends on.
"""

import random

from repro.sat import SatSolver, create_solver


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> list[list[int]]:
    """A random 3-CNF-ish instance (clause width 1..3)."""
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


class TestSessionBasics:
    def test_streams_and_solves(self):
        session = create_solver()
        session.add_clause([1, 2])
        session.add_clause([-1, 2])
        result = session.solve()
        assert result.is_sat and result.model[2] is True
        assert session.num_clauses() == 2

    def test_solver_survives_across_calls(self):
        session = create_solver()
        session.add_clause([1, 2])
        assert session.solve().is_sat
        session.add_clause([-1])
        result = session.solve()
        # The second call still holds the first call's clause.
        assert result.is_sat and result.model[2] is True

    def test_learnt_clauses_are_retained(self):
        rng = random.Random(11)
        session = create_solver()
        for clause in random_cnf(rng, 30, 140):
            session.add_clause(clause)
        session.solve()
        # A second solve keeps whatever the first one learnt.
        learnt = session.num_learnt()
        session.solve(assumptions=[1])
        assert session.num_learnt() >= learnt >= 0

class TestSessionEquivalence:
    """Session-reuse verdicts == from-scratch verdicts on random CNF."""

    def test_incremental_clause_addition_matches_from_scratch(self):
        for seed in range(12):
            rng = random.Random(1000 + seed)
            clauses = random_cnf(rng, rng.randint(5, 14), rng.randint(10, 50))
            session = create_solver()
            # Feed the instance in chunks, solving between chunks (the session
            # path), and compare every verdict with a fresh solver built from
            # the clauses streamed so far (the from-scratch path).
            streamed: list[list[int]] = []
            chunk = max(1, len(clauses) // 4)
            for start in range(0, len(clauses), chunk):
                for clause in clauses[start:start + chunk]:
                    session.add_clause(clause)
                    streamed.append(clause)
                fresh = SatSolver()
                for clause in streamed:
                    fresh.add_clause(clause)
                assert session.solve().status is fresh.solve().status, (
                    f"seed {seed}: session and from-scratch verdicts diverged "
                    f"after {len(streamed)} clauses")

    def test_assumption_solving_matches_hard_unit_solving(self):
        for seed in range(12):
            rng = random.Random(2000 + seed)
            num_vars = rng.randint(6, 12)
            clauses = random_cnf(rng, num_vars, rng.randint(15, 45))
            assumption_sets = [
                [v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(1, num_vars + 1), rng.randint(1, 3))]
                for _ in range(4)
            ]
            session = create_solver()
            for clause in clauses:
                session.add_clause(clause)
            for assumptions in assumption_sets:
                fresh = SatSolver()
                for clause in clauses:
                    fresh.add_clause(clause)
                for literal in assumptions:
                    fresh.add_clause([literal])
                expected = fresh.solve().status.value
                got = session.solve(assumptions=assumptions).status.value
                # A poisoned fresh solver reports UNSAT the same way.
                assert got == expected, (
                    f"seed {seed}: assumptions {assumptions} gave {got}, "
                    f"from-scratch hard units gave {expected}")


class TestUnsatCoreStability:
    def _pigeonhole_session(self) -> tuple[SatSolver, list[int]]:
        """Three pigeons, two holes, selectable per-pigeon placement duty."""
        session = create_solver()
        # var(p, h) = 1 + 2p + h ; selector s_p = 7 + p enables pigeon p.
        def var(p, h):
            return 1 + 2 * p + h
        selectors = [7 + p for p in range(3)]
        for p in range(3):
            session.add_clause([-selectors[p], var(p, 0), var(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    session.add_clause([-var(p1, h), -var(p2, h)])
        return session, selectors

    def test_core_is_stable_across_successive_calls(self):
        session, selectors = self._pigeonhole_session()
        assumptions = selectors  # enable all three pigeons: UNSAT
        cores = []
        for _ in range(3):
            result = session.solve(assumptions=assumptions)
            assert result.is_unsat
            assert result.core, "an assumption-UNSAT result must carry a core"
            assert set(result.core) <= set(assumptions)
            cores.append(sorted(result.core))
        # Re-solving the identical query on the warmed session must keep
        # returning a valid core; re-assuming any reported core is UNSAT.
        for core in cores:
            assert session.solve(assumptions=core).is_unsat
        # And the session is not poisoned: dropping one pigeon is SAT again.
        assert session.solve(assumptions=selectors[:2]).is_sat

    def test_core_shrinks_to_the_conflicting_subset(self):
        session, selectors = self._pigeonhole_session()
        # An irrelevant extra assumption must not be required in the core.
        extra = 20
        session.ensure_vars(extra)
        result = session.solve(assumptions=selectors + [extra])
        assert result.is_unsat
        assert session.solve(assumptions=[lit for lit in result.core
                                          if lit != extra]).is_unsat
