"""A CDCL SAT solver with incremental (assumption-based) solving.

The design follows MiniSat: two-watched-literal propagation, first-UIP
conflict analysis with recursive clause minimisation, VSIDS branching with
phase saving, Luby restarts, and activity-based learnt-clause reduction.  The
solver accepts per-call budgets (time and conflicts), which the MaxSAT layer
uses to implement the anytime behaviour of Open-WBO-Inc-MCS: if the budget is
exhausted the call returns ``UNKNOWN`` and the caller keeps the best model it
has seen so far.

All per-variable and per-literal state is held in flat arrays indexed by
variable (assignment, reason, level, activity, phase) or by a dense literal
index (watch lists), mirroring the layout of hardware and C solvers: variable
``v`` owns slots ``2v`` (positive literal) and ``2v + 1`` (negative literal)
of the watch table.  The solver is designed to stay alive across ``solve()``
calls -- learnt clauses, VSIDS activity, and saved phases all persist -- which
is what the MaxSAT search (:class:`repro.maxsat.solver.MaxSatSolver`) builds
on: it keeps one solver alive for the whole life of an instance.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum

from repro.obs import trace as obs_trace
from repro.sat.assignment import Trail
from repro.sat.clause import Clause, ClauseDatabase
from repro.sat.flat import iter_clauses, scan_flat
from repro.sat.literals import neg, var_of
from repro.sat.vsids import VsidsHeap


def watch_index(literal: int) -> int:
    """Dense index of ``literal`` in the flat watch table (2v / 2v+1)."""
    return (literal << 1) if literal > 0 else ((-literal << 1) | 1)


class SolverStatus(Enum):
    """Outcome of a :meth:`SatSolver.solve` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolveResult:
    """Result of a solve call.

    ``model`` maps variable index to Boolean value when ``status`` is SAT:
    a dict from this core, a :class:`~repro.sat.native.NativeModel` from the
    native one; treat it as read-only either way.  ``core`` contains the
    subset of assumption literals responsible for unsatisfiability when
    ``status`` is UNSAT and assumptions were given.
    """

    status: SolverStatus
    model: Mapping[int, bool] = field(default_factory=dict)
    core: list[int] = field(default_factory=list)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    solve_time: float = 0.0

    @property
    def is_sat(self) -> bool:
        return self.status is SolverStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SolverStatus.UNSAT

    @property
    def is_unknown(self) -> bool:
        return self.status is SolverStatus.UNKNOWN


@dataclass
class SolverStatistics:
    """Cumulative counters across all solve calls."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learnt_clauses: int = 0
    deleted_clauses: int = 0
    #: Which solve core produced these numbers ("python" or "native").
    backend: str = "python"

    def as_dict(self) -> dict[str, int | str]:
        """Plain-dict form for telemetry details and span attributes."""
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learnt_clauses": self.learnt_clauses,
            "deleted_clauses": self.deleted_clauses,
            "backend": self.backend,
        }


def luby(index: int) -> int:
    """Return the ``index``-th term (1-based) of the Luby restart sequence.

    The sequence is 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...  (MiniSat
    uses it to schedule restart intervals).
    """
    if index <= 0:
        raise ValueError("Luby sequence is 1-based")
    position = index - 1
    # Find the finite subsequence containing `position` and its size.
    subsequence = 0
    size = 1
    while size < position + 1:
        subsequence += 1
        size = 2 * size + 1
    while size - 1 != position:
        size = (size - 1) >> 1
        subsequence -= 1
        position %= size
    return 1 << subsequence


class SatSolver:
    """Conflict-driven clause-learning SAT solver.

    Typical use::

        solver = SatSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        result = solver.solve()
        assert result.is_sat and result.model[2] is True

    The solver is incremental: clauses can be added between solve calls, and
    ``solve(assumptions=[...])`` temporarily forces literals true, returning an
    unsat core over the assumptions when the instance is unsatisfiable.
    Learnt clauses and branching activity survive between calls, so a sequence
    of related solves (the MaxSAT refinement loop, slicing re-solves) gets
    faster as the solver warms up.
    """

    def __init__(
        self,
        decay: float = 0.95,
        restart_base: int = 100,
        max_learnt_ratio: float = 0.4,
    ) -> None:
        self.num_vars = 0
        self.database = ClauseDatabase()
        self.trail = Trail()
        self.vsids = VsidsHeap(decay=decay)
        #: Flat watch table: ``_watches[watch_index(l)]`` holds the clauses to
        #: revisit when literal ``l`` becomes true.  Slots 0/1 are unused so
        #: variable ``v`` owns slots ``2v`` and ``2v + 1``.
        self._watches: list[list[Clause]] = [[], []]
        #: Scratch "seen" flags for conflict analysis, indexed by variable.
        self._seen = bytearray(1)
        self.stats = SolverStatistics()
        self.restart_base = restart_base
        self.max_learnt_ratio = max_learnt_ratio
        self.clause_activity_increment = 1.0
        self.clause_decay = 0.999
        self._ok = True  # False once an empty clause / root conflict is derived
        self._propagation_head = 0

    # ------------------------------------------------------------------ setup

    def new_var(self) -> int:
        """Allocate and return a fresh variable index."""
        self.num_vars += 1
        self.trail.grow_to(self.num_vars)
        self.vsids.grow_to(self.num_vars)
        self._watches.append([])
        self._watches.append([])
        self._seen.append(0)
        return self.num_vars

    def ensure_vars(self, max_var: int) -> None:
        """Make sure all variables up to ``max_var`` exist (bulk growth)."""
        grow = max_var - self.num_vars
        if grow <= 0:
            return
        self.trail.grow_to(max_var)
        self.vsids.grow_to(max_var)
        self._watches.extend([] for _ in range(2 * grow))
        self._seen.extend(b"\x00" * grow)
        self.num_vars = max_var

    def add_clause(self, literals: list[int]) -> bool:
        """Add a clause; return ``False`` if the formula became trivially UNSAT.

        The clause is simplified: duplicate literals are removed, tautologies
        are dropped, and literals already false at the root level are removed.
        """
        if not self._ok:
            return False
        seen: set[int] = set()
        simplified: list[int] = []
        for literal in literals:
            if literal == 0:
                raise ValueError("0 is not a valid literal")
            self.ensure_vars(var_of(literal))
            if -literal in seen:
                return True  # tautology, trivially satisfied
            if literal in seen:
                continue
            if self.trail.decision_level == 0:
                value = self.trail.value_of_literal(literal)
                if value is True:
                    return True
                if value is False:
                    continue
            seen.add(literal)
            simplified.append(literal)

        if not simplified:
            self._ok = False
            return False
        if len(simplified) == 1:
            return self._enqueue_root_unit(simplified[0])

        clause = Clause(simplified)
        self.database.add_problem_clause(clause)
        self._watch_clause(clause)
        return True

    def add_clauses(self, clauses: list[list[int]]) -> bool:
        """Add several clauses; return ``False`` if any made the formula UNSAT."""
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    def add_flat(self, buffer) -> int:
        """Add every clause of a flat int32 buffer (see :mod:`repro.sat.flat`).

        The whole buffer is validated first, then each clause goes through
        :meth:`add_clause` in order.  Returns the number of clauses in it.
        """
        count, _ = scan_flat(buffer)
        for clause in iter_clauses(buffer):
            if not self._ok:
                break
            self.add_clause(clause)
        return count

    def export_clauses(self) -> list[int]:
        """Flat dump of the problem clauses, then each root unit as a clause."""
        flat: list[int] = []
        for clause in self.database.problem_clauses:
            flat += clause.literals
            flat.append(0)
        levels = self.trail.levels
        for literal in self.trail.trail:
            if levels[abs(literal)] == 0:
                flat += (literal, 0)
        return flat

    def _enqueue_root_unit(self, literal: int) -> bool:
        value = self.trail.value_of_literal(literal)
        if value is True:
            return True
        if value is False:
            self._ok = False
            return False
        self.trail.assign(literal, None)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return False
        return True

    def _watch_clause(self, clause: Clause) -> None:
        lits = clause.literals
        self._watches[watch_index(-lits[0])].append(clause)
        self._watches[watch_index(-lits[1])].append(clause)

    # ------------------------------------------------------------ propagation

    def _propagate(self) -> Clause | None:
        """Unit propagation; return the conflicting clause or ``None``."""
        trail = self.trail
        trail_list = trail.trail
        values = trail.values
        watches = self._watches
        while self._propagation_head < len(trail_list):
            literal = trail_list[self._propagation_head]
            self._propagation_head += 1
            self.stats.propagations += 1
            # watch_index(literal), inlined for the propagation hot loop.
            windex = (literal << 1) if literal > 0 else ((-literal << 1) | 1)
            watchers = watches[windex]
            new_watchers: list[Clause] = []
            conflict: Clause | None = None
            false_literal = -literal
            index = 0
            total = len(watchers)
            while index < total:
                clause = watchers[index]
                index += 1
                lits = clause.literals
                # Make sure the false literal is in position 1.
                if lits[0] == false_literal:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                value = values[first] if first > 0 else values[-first]
                first_value = (value if value is None
                               else (value if first > 0 else not value))
                if first_value is True:
                    new_watchers.append(clause)
                    continue
                # Look for a new literal to watch.
                found = False
                for position in range(2, len(lits)):
                    candidate = lits[position]
                    cvalue = values[candidate] if candidate > 0 else values[-candidate]
                    if cvalue is None or cvalue is (candidate > 0):
                        lits[1], lits[position] = lits[position], lits[1]
                        # watch_index(-lits[1]), inlined: this and the outer
                        # lookup are the two hottest index computations.
                        moved = -lits[1]
                        watches[(moved << 1) if moved > 0
                                else ((-moved << 1) | 1)].append(clause)
                        found = True
                        break
                if found:
                    continue
                new_watchers.append(clause)
                if first_value is False:
                    # Conflict: copy the remaining watchers back and stop.
                    new_watchers.extend(watchers[index:])
                    conflict = clause
                    break
                trail.assign(first, clause)
            watches[windex] = new_watchers
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------- analysis

    def _analyze(self, conflict: Clause) -> tuple[list[int], int]:
        """First-UIP conflict analysis.

        Returns the learnt clause (asserting literal first) and the backtrack
        level.  The "seen" set is a flat byte array indexed by variable,
        cleared via the touched list on the way out.
        """
        trail = self.trail
        trail_list = trail.trail
        levels = trail.levels
        seen = self._seen
        learnt: list[int] = [0]  # placeholder for the asserting literal
        touched: list[int] = []
        counter = 0
        literal: int | None = None
        reason: Clause | None = conflict
        trail_index = len(trail_list) - 1
        current_level = trail.decision_level

        while True:
            assert reason is not None
            self._bump_clause(reason)
            for other in reason.literals:
                if literal is not None and other == literal:
                    continue
                variable = other if other > 0 else -other
                if seen[variable] or levels[variable] == 0:
                    continue
                seen[variable] = 1
                touched.append(variable)
                self.vsids.bump(variable)
                if levels[variable] >= current_level:
                    counter += 1
                else:
                    learnt.append(other)
            # Find the next literal on the trail to resolve on.
            while not seen[abs(trail_list[trail_index])]:
                trail_index -= 1
            literal = trail_list[trail_index]
            trail_index -= 1
            variable = abs(literal)
            seen[variable] = 0
            counter -= 1
            if counter == 0:
                break
            reason = trail.reason_of_var(variable)

        learnt[0] = -literal
        learnt = self._minimize_learnt(learnt)
        for variable in touched:
            seen[variable] = 0

        if len(learnt) == 1:
            backtrack_level = 0
        else:
            # Second-highest decision level in the clause.
            max_index = 1
            max_level = levels[abs(learnt[1])]
            for position in range(2, len(learnt)):
                level = levels[abs(learnt[position])]
                if level > max_level:
                    max_level = level
                    max_index = position
            learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
            backtrack_level = max_level
        return learnt, backtrack_level

    def _minimize_learnt(self, learnt: list[int]) -> list[int]:
        """Remove literals implied by the rest of the learnt clause."""
        keep = {var_of(literal) for literal in learnt}
        minimized = [learnt[0]]
        for literal in learnt[1:]:
            if not self._is_redundant(literal, keep):
                minimized.append(literal)
        return minimized

    def _is_redundant(self, literal: int, keep: set[int]) -> bool:
        """Check whether ``literal``'s reason chain lies entirely inside ``keep``."""
        reason = self.trail.reason_of_var(var_of(literal))
        if reason is None:
            return False
        stack = [literal]
        visited: set[int] = set()
        while stack:
            current = stack.pop()
            current_reason = self.trail.reason_of_var(var_of(current))
            if current_reason is None:
                return False
            for other in current_reason.literals:
                variable = var_of(other)
                if variable == var_of(current) or variable in visited:
                    continue
                if self.trail.level_of_var(variable) == 0:
                    continue
                if variable in keep:
                    continue
                if self.trail.reason_of_var(variable) is None:
                    return False
                visited.add(variable)
                stack.append(other)
        return True

    def _bump_clause(self, clause: Clause) -> None:
        if not clause.learnt:
            return
        clause.activity += self.clause_activity_increment
        if clause.activity > 1e20:
            for learnt in self.database.learnt_clauses:
                learnt.activity *= 1e-20
            self.clause_activity_increment *= 1e-20

    # --------------------------------------------------------------- search

    def solve(
        self,
        assumptions: list[int] | None = None,
        time_budget: float | None = None,
        conflict_budget: int | None = None,
    ) -> SolveResult:
        """Solve the current formula under optional assumptions and budgets."""
        start = time.monotonic()
        wall_start = time.time()
        start_conflicts = self.stats.conflicts
        start_decisions = self.stats.decisions
        start_propagations = self.stats.propagations
        start_restarts = self.stats.restarts

        def make_result(status: SolverStatus, model=None, core=None) -> SolveResult:
            result = SolveResult(
                status=status,
                model=model or {},
                core=core or [],
                conflicts=self.stats.conflicts - start_conflicts,
                decisions=self.stats.decisions - start_decisions,
                propagations=self.stats.propagations - start_propagations,
                solve_time=time.monotonic() - start,
            )
            # Every exit funnels through here, so this one call gives a
            # per-solve span (with its counter deltas) to any active tracer;
            # when tracing is off it is a single context-variable read.
            obs_trace.record(
                "sat-solve", start=wall_start, duration=result.solve_time,
                status=status.value, conflicts=result.conflicts,
                decisions=result.decisions, propagations=result.propagations,
                restarts=self.stats.restarts - start_restarts,
                assumptions=len(assumptions) if assumptions else 0,
                backend="python",
            )
            return result

        if not self._ok:
            return make_result(SolverStatus.UNSAT)

        assumptions = list(assumptions or [])
        for literal in assumptions:
            self.ensure_vars(var_of(literal))

        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return make_result(SolverStatus.UNSAT)

        restart_round = 0
        conflicts_until_restart = self.restart_base * luby(1)
        conflicts_this_call = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_this_call += 1
                conflicts_until_restart -= 1
                if self.trail.decision_level == 0:
                    self._ok = False
                    return make_result(SolverStatus.UNSAT)
                learnt, backtrack_level = self._analyze(conflict)
                self._backtrack(backtrack_level)
                self._add_learnt_clause(learnt)
                self.vsids.decay_activities()
                self.clause_activity_increment /= self.clause_decay
                continue

            # Budgets are only checked at a stable (non-conflicting) point.
            if time_budget is not None and time.monotonic() - start > time_budget:
                self._backtrack(0)
                return make_result(SolverStatus.UNKNOWN)
            if conflict_budget is not None and conflicts_this_call > conflict_budget:
                self._backtrack(0)
                return make_result(SolverStatus.UNKNOWN)

            if conflicts_until_restart <= 0:
                restart_round += 1
                self.stats.restarts += 1
                conflicts_until_restart = self.restart_base * luby(restart_round + 1)
                self._backtrack(0)
                continue

            if self._should_reduce_learnt():
                self._reduce_learnt_clauses()

            # Assumption handling (MiniSat style): redo assumptions after any
            # backtrack before making free decisions.
            next_literal = None
            if self.trail.decision_level < len(assumptions):
                assumption = assumptions[self.trail.decision_level]
                value = self.trail.value_of_literal(assumption)
                if value is True:
                    self.trail.new_decision_level()
                    continue
                if value is False:
                    core = self._analyze_final(assumption, assumptions)
                    self._backtrack(0)
                    return make_result(SolverStatus.UNSAT, core=core)
                next_literal = assumption
            else:
                next_literal = self._pick_branch_literal()
                if next_literal is None:
                    model = self._extract_model()
                    self._backtrack(0)
                    return make_result(SolverStatus.SAT, model=model)

            self.stats.decisions += 1
            self.trail.new_decision_level()
            self.trail.assign(next_literal, None)

    def _pick_branch_literal(self) -> int | None:
        while True:
            variable = self.vsids.pop_max()
            if variable is None:
                return None
            if self.trail.value_of_var(variable) is None:
                polarity = self.trail.saved_phases[variable]
                return variable if polarity else -variable

    def _backtrack(self, level: int) -> None:
        undone = self.trail.backtrack_to(level)
        for literal in undone:
            self.vsids.push(var_of(literal))
        self._propagation_head = min(self._propagation_head, len(self.trail.trail))

    def _add_learnt_clause(self, learnt: list[int]) -> None:
        asserting = learnt[0]
        if len(learnt) == 1:
            self.trail.assign(asserting, None)
            return
        clause = Clause(list(learnt), learnt=True)
        levels = {self.trail.level_of_var(var_of(lit)) for lit in learnt}
        clause.lbd = len(levels)
        self.database.add_learnt_clause(clause)
        self.stats.learnt_clauses += 1
        self._watch_clause(clause)
        self.trail.assign(asserting, clause)

    def _analyze_final(self, failed_assumption: int, assumptions: list[int]) -> list[int]:
        """Compute the subset of assumptions implying ``failed_assumption`` false."""
        core = [failed_assumption]
        assumption_set = set(assumptions)
        seen: set[int] = {var_of(failed_assumption)}
        stack = [neg(failed_assumption)]
        while stack:
            literal = stack.pop()
            variable = var_of(literal)
            reason = self.trail.reason_of_var(variable)
            if reason is None:
                # A decision: it must be one of the assumptions.
                truthy = literal if self.trail.value_of_literal(literal) else neg(literal)
                if truthy in assumption_set and truthy not in core:
                    core.append(truthy)
                continue
            for other in reason.literals:
                other_var = var_of(other)
                if other_var in seen or self.trail.level_of_var(other_var) == 0:
                    continue
                seen.add(other_var)
                stack.append(other)
        return core

    def _extract_model(self) -> dict[int, bool]:
        model: dict[int, bool] = {}
        values = self.trail.values
        phases = self.trail.saved_phases
        for variable in range(1, self.num_vars + 1):
            value = values[variable]
            model[variable] = phases[variable] if value is None else value
        return model

    # ----------------------------------------------------- clause reduction

    def _should_reduce_learnt(self) -> bool:
        if not self.database.problem_clauses:
            return False
        limit = max(1000, int(self.max_learnt_ratio * len(self.database.problem_clauses) + 2000))
        return len(self.database.learnt_clauses) > limit

    def _reduce_learnt_clauses(self) -> None:
        """Drop the half of learnt clauses with the lowest activity."""
        locked = {
            id(self.trail.reason_of_var(var_of(literal)))
            for literal in self.trail.trail
            if self.trail.reason_of_var(var_of(literal)) is not None
        }
        learnt = self.database.learnt_clauses
        learnt.sort(key=lambda clause: (clause.lbd, -clause.activity))
        keep_count = len(learnt) // 2
        kept: list[Clause] = []
        removed: list[Clause] = []
        for index, clause in enumerate(learnt):
            if index < keep_count or id(clause) in locked or len(clause) == 2:
                kept.append(clause)
            else:
                removed.append(clause)
        if not removed:
            return
        removed_ids = {id(clause) for clause in removed}
        watches = self._watches
        for windex in range(2, len(watches)):
            watchers = watches[windex]
            if watchers:
                watches[windex] = [c for c in watchers if id(c) not in removed_ids]
        self.database.learnt_clauses = kept
        self.stats.deleted_clauses += len(removed)

    # -------------------------------------------------------------- helpers

    @property
    def ok(self) -> bool:
        """``False`` once the formula is known to be unsatisfiable at the root."""
        return self._ok

    def num_clauses(self) -> int:
        return self.database.num_problem

    def num_learnt(self) -> int:
        """Learnt clauses currently retained in the database."""
        return self.database.num_learnt

    def solver_stats(self) -> dict:
        """The cumulative depth counters, as a dict."""
        return self.stats.as_dict()
