"""Bulk clause ingestion: ``add_flat`` behaves like a per-clause loop.

A flat buffer is many zero-terminated clauses in one int32 array (see
:mod:`repro.sat.flat`).  Every solve core must ingest it exactly as if each
clause had gone through ``add_clause`` in order -- same simplification
(tautologies, duplicate literals, root-satisfied clauses, root-false
literals, units propagated mid-buffer), same stored formula, same verdict
and model -- and must reject malformed buffers before ingesting anything.
"""

from array import array

import pytest

from repro.maxsat import WcnfBuilder
from repro.sat import SatSession
from repro.sat.backends import CROSSCHECK_ENV, create_solver, native_available
from repro.sat.flat import iter_clauses, scan_flat

BACKENDS = [
    "python",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="compiled SAT core not built")),
]


def flat(clauses: list[list[int]]) -> array:
    buffer = array("i")
    for clause in clauses:
        buffer.extend(clause)
        buffer.append(0)
    return buffer


#: Each case mixes the simplifications the two ingestion paths must share.
CASES = {
    "tautology": [[1, 2], [3, -3, 4], [-1, 2, 5]],
    "duplicates": [[1, 1, 2], [-2, 3, 3, -2], [4, 4]],
    "mid-buffer-units": [[1, 2, 3], [-1], [1, -2, 4], [2], [-4, 5, 6], [-5, 6]],
    "root-satisfied": [[7], [7, 1, 2], [-7, 3, 4], [3, -4], [-3, 5]],
    "root-false-literals": [[-6], [6, 1, 2], [6, -1], [2, 3, 6]],
    "becomes-unsat": [[1], [-1, 2], [-2], [3, 4], [5, 6]],
    "unsat-by-propagation": [[1, 2], [-1, 2], [1, -2], [-1, -2], [3]],
}


def ingest(backend: str, clauses: list[list[int]], bulk: bool):
    solver = create_solver(backend)
    solver.ensure_vars(8)
    solver.add_clause([8, -8])  # something stored before the buffer
    if bulk:
        assert solver.add_flat(flat(clauses)) == len(clauses)
    else:
        for clause in clauses:
            solver.add_clause(clause)
    return solver


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_add_flat_matches_a_per_clause_loop(backend, name):
    clauses = CASES[name]
    looped = ingest(backend, clauses, bulk=False)
    bulked = ingest(backend, clauses, bulk=True)
    assert bulked.export_clauses() == looped.export_clauses()
    assert bulked.ok == looped.ok
    assert bulked.num_vars == looped.num_vars
    first, second = looped.solve(), bulked.solve()
    assert first.status == second.status
    assert first.model == second.model


@pytest.mark.parametrize("backend", BACKENDS)
def test_clauses_after_root_unsat_are_skipped(backend):
    solver = create_solver(backend)
    solver.add_flat(flat([[1], [-1], [2, 3]]))
    assert not solver.ok
    assert solver.add_flat(flat([[4, 5]])) == 1  # still counted, not stored
    assert not solver.ok


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("buffer, error", [
    (array("i", [1, 2, 0, 0]), ValueError),       # empty clause
    (array("i", [0, 1, 0]), ValueError),          # leading empty clause
    (array("i", [1, 2]), ValueError),             # missing terminator
    (array("i", [1, 2**30, 0]), OverflowError),   # literal beyond the limit
    (array("i", [-2**31, 0]), OverflowError),
    ([1, 2, 0], TypeError),                       # not a buffer
    (array("l", [1, 2, 0]), TypeError),           # 64-bit items
    (array("h", [1, 2, 0]), TypeError),
    (b"\x01\x00\x00\x00\x00\x00\x00\x00", TypeError),
])
def test_bad_buffers_raise_before_anything_is_ingested(backend, buffer, error):
    solver = create_solver(backend)
    solver.add_clause([1, 2])
    before = solver.export_clauses()
    with pytest.raises(error):
        solver.add_flat(buffer)
    assert solver.export_clauses() == before
    assert solver.ok


def test_scan_reports_clauses_and_the_largest_variable():
    assert scan_flat(array("i")) == (0, 0)
    assert scan_flat(flat([[3, -9], [4]])) == (2, 9)
    assert scan_flat(memoryview(flat([[-5]]))) == (1, 5)


def test_iter_clauses_round_trips():
    clauses = [[1, -2], [3], [-4, 5, 6]]
    assert list(iter_clauses(flat(clauses))) == clauses


@pytest.mark.parametrize("backend", BACKENDS)
def test_session_counts_clauses_not_calls(backend):
    session = SatSession(backend=backend)
    assert session.add_flat(flat([[1, 2], [-1], [3, 4, 5]])) == 3
    session.add_hard([2, 6])
    assert session.stats.clauses_streamed == 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_builder_streams_a_buffer_in_one_call_and_stores_it_once(backend):
    session = SatSession(backend=backend)
    calls = []
    original = session.add_flat

    def counting_add_flat(buffer):
        calls.append(len(buffer))
        return original(buffer)

    session.add_flat = counting_add_flat
    builder = WcnfBuilder()
    builder.add_hard([1, 2])
    assert builder.add_flat(flat([[-1, 3], [4], [-3, -4, 5]])) == 3
    assert builder.stream_hard(session) == builder.hard_words
    # One call per stored segment: the single clause, then the whole buffer.
    assert calls == [3, 9]
    assert builder.num_hard == 4 and builder.num_vars == 5
    assert builder.to_dimacs().hard == [[1, 2], [-1, 3], [4], [-3, -4, 5]]
    assert session.stats.clauses_streamed == 4
    assert session.num_vars == 5


class RecordingTarget:
    """Stands in for a solver: records what ``stream_hard`` feeds it."""

    def __init__(self):
        self.buffers = []

    def ensure_vars(self, max_var):
        pass

    def add_flat(self, buffer):
        self.buffers.append(list(buffer))
        return buffer.count(0)


def test_builder_never_writes_into_a_buffer_it_was_given():
    shared = flat([[1, 2], [-1]])
    builder = WcnfBuilder()
    builder.add_flat(shared)
    builder.add_hard([3])
    builder.add_flat(memoryview(flat([[4]])))
    builder.add_hard([5])
    builder.add_hard([-5, 6])
    assert shared == flat([[1, 2], [-1]])
    assert builder.to_dimacs().hard == [[1, 2], [-1], [3], [4], [5], [-5, 6]]
    assert builder.num_hard == 6 and builder.hard_words == 14


def test_stream_hard_resumes_at_any_word_offset():
    builder = WcnfBuilder()
    builder.add_flat(flat([[1, 2], [-1]]))
    middle = builder.hard_words
    builder.add_hard([3])
    builder.add_flat(flat([[4], [-4, 5]]))
    target = RecordingTarget()
    assert builder.stream_hard(target, 3) == builder.hard_words
    assert target.buffers == [[-1, 0], [3, 0], [4, 0, -4, 5, 0]]
    target = RecordingTarget()
    builder.stream_hard(target, middle)
    assert target.buffers == [[3, 0], [4, 0, -4, 5, 0]]
    target = RecordingTarget()
    assert builder.stream_hard(target, builder.hard_words) == 12
    assert target.buffers == []


def test_builder_rejects_a_bad_buffer_without_storing_it():
    builder = WcnfBuilder()
    builder.add_hard([1])
    with pytest.raises(ValueError):
        builder.add_flat(array("i", [2, 0, 0]))
    assert builder.to_dimacs().hard == [[1]] and builder.num_vars == 1


@pytest.mark.skipif(not native_available(), reason="compiled SAT core not built")
class TestCrossCheckSeesBulkClauses:
    """Cross-check mode must log clauses that arrived through ``add_flat``."""

    class LyingCore:
        """Delegates to the real core but reports an all-false model."""

        def __init__(self, core):
            self._core = core

        def __getattr__(self, name):
            return getattr(self._core, name)

        def get_model(self):
            return bytes(len(self._core.get_model()))

    def test_a_planted_bad_model_is_caught(self, monkeypatch):
        from repro.sat.native import CrossCheckError, NativeSatSolver

        monkeypatch.setenv(CROSSCHECK_ENV, "1")
        solver = NativeSatSolver()
        solver.add_flat(flat([[1, 2], [-1, 3]]))
        solver._core = self.LyingCore(solver._core)
        with pytest.raises(CrossCheckError):
            solver.solve()

    def test_honest_bulk_solves_pass(self, monkeypatch):
        from repro.sat.native import NativeSatSolver

        monkeypatch.setenv(CROSSCHECK_ENV, "1")
        solver = NativeSatSolver()
        solver.add_flat(flat([[1, 2], [-1, 3], [-3]]))
        assert solver.solve().is_sat
        solver.add_flat(flat([[-2]]))
        assert solver.solve().is_unsat
