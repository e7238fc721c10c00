"""Worker pool timeout semantics and portfolio racing."""

from __future__ import annotations

import time

import pytest

from repro.circuits.random_circuits import random_circuit
from repro.core.verifier import verify_routing
from repro.hardware.topologies import reduced_tokyo_architecture, tokyo_architecture
from repro.api import get_router
from repro.service import (
    BatchRoutingService,
    RoutingJob,
    WorkerPool,
    execute_job,
    is_fallback_result,
    race_portfolio,
)


@pytest.fixture
def arch():
    return reduced_tokyo_architecture(6)


def make_job(arch, router="satmap", seed=3, gates=18, qubits=5):
    circuit = random_circuit(qubits, gates, seed=seed, name=f"pp_seed{seed}")
    return RoutingJob.from_circuit(circuit, arch, router=router)


class TestExecuteJob:
    def test_outcome_round_trips_to_a_verified_result(self, arch):
        job = make_job(arch, router="sabre")
        result = execute_job(job, time_budget=10.0)
        assert result.solved
        swaps = verify_routing(job.circuit(), result.routed_circuit,
                               result.initial_mapping, job.architecture())
        assert swaps == result.swap_count

    def test_unknown_router_fails_loudly(self, arch):
        job = make_job(arch, router="sabre")
        job.router = "no-such-router"
        with pytest.raises(KeyError):
            execute_job(job, time_budget=1.0)


class TestTimeoutSemantics:
    def test_tiny_budget_still_returns_a_feasible_result(self, arch):
        """Graceful timeout: the caller gets a best-so-far feasible routing."""
        job = make_job(arch, router="satmap", gates=24)
        with WorkerPool(max_workers=1, mode="serial") as pool:
            [result] = pool.run([job], time_budget=0.02)
        assert result.solved, result.notes
        # whatever produced it, the answer must survive independent verification
        swaps = verify_routing(job.circuit(), result.routed_circuit,
                               result.initial_mapping, job.architecture())
        assert swaps == result.swap_count

    def test_fallback_is_attributed_in_notes(self, arch):
        job = make_job(arch, router="satmap", gates=24)
        result = execute_job(job, time_budget=0.02)
        if result.router_name != "SATMAP":  # the budget was indeed too small
            assert "fallback" in result.notes

    def test_fallback_can_be_disabled(self, arch):
        job = make_job(arch, router="satmap", gates=24)
        result = execute_job(job, time_budget=0.02, fallback=False)
        assert "fallback" not in result.notes
        if not result.solved:
            assert result.routed_circuit is None


class TestHardTimeoutRescue:
    """A job whose worker never delivers is answered by the fallback router."""

    @pytest.fixture
    def stuck_worker(self, monkeypatch):
        import repro.service.pool as pool_module

        def stuck(job, time_budget, fallback):
            # One job on one worker with no slack: the deadline is 2 * budget.
            time.sleep(time_budget * 2 + 1.0)
            raise AssertionError("a stuck worker never returns in time")

        monkeypatch.setattr(pool_module, "_execute", stuck)

    def test_rescue_is_solved_verified_and_marked(self, arch, stuck_worker):
        job = make_job(arch, router="satmap", gates=12)
        with WorkerPool(max_workers=1, mode="thread", slack=0) as pool:
            [result] = pool.run([job], time_budget=0.2)
        assert result.solved, result.notes
        assert result.notes.startswith("fallback=naive after hard timeout")
        assert is_fallback_result(result)
        swaps = verify_routing(job.circuit(), result.routed_circuit,
                               result.initial_mapping, job.architecture())
        assert swaps == result.swap_count

    def test_rescue_is_not_cached(self, arch, stuck_worker, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_SLACK", "0")
        job = make_job(arch, router="satmap", gates=12)
        with BatchRoutingService(max_workers=1, mode="thread") as service:
            result = service.route_one(job, time_budget=0.2)
            assert result.solved and is_fallback_result(result)
            assert len(service.cache) == 0
            assert service.event_log.counts_by_event()["fallback"] == 1


class TestUnsolvedResultAcrossTheBoundary:
    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_unsolved_result_keeps_its_fields(self, mode):
        # Encodes, then times out: deterministic at this budget.
        circuit = random_circuit(12, 120, seed=1)
        architecture = tokyo_architecture()
        own = get_router("nl-satmap", time_budget=0.001).route(
            circuit, architecture)
        job = RoutingJob.from_circuit(circuit, architecture, router="nl-satmap")
        with WorkerPool(max_workers=1, mode=mode, fallback=False) as pool:
            [result] = pool.run([job], time_budget=0.001)
        assert not own.solved
        fields = ("status", "circuit_name", "num_slices", "backtracks", "notes")
        assert ({name: getattr(result, name) for name in fields}
                == {name: getattr(own, name) for name in fields})
        assert set(result.stage_timings) == set(own.stage_timings) \
            == {"encode", "solve"}


class TestPoolModes:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_all_modes_return_results_in_submission_order(self, arch, mode):
        jobs = [make_job(arch, router="sabre", seed=s, gates=8 + s) for s in range(3)]
        with WorkerPool(max_workers=2, mode=mode) as pool:
            results = pool.run(jobs, time_budget=10.0)
        assert len(results) == len(jobs)
        for job, result in zip(jobs, results):
            assert result.solved
            assert result.circuit_name == job.name

    def test_auto_mode_resolves_to_something_usable(self):
        with WorkerPool(mode="auto") as pool:
            assert pool.mode in ("process", "thread", "serial")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            WorkerPool(mode="quantum")


class TestPortfolio:
    def test_winner_is_no_worse_than_any_standalone_entrant(self, arch):
        entrants = ("satmap", "sabre", "naive")
        job = make_job(arch, router="satmap", seed=7, gates=12, qubits=4)
        winner = race_portfolio(job, time_budget=10.0, entrants=entrants)
        assert winner.solved
        standalone_costs = []
        for name in entrants:
            result = get_router(name, time_budget=10.0).route(job.circuit(), job.architecture())
            if result.solved:
                standalone_costs.append(result.added_cnots)
        assert standalone_costs, "at least one entrant must solve standalone"
        assert winner.added_cnots <= min(standalone_costs)

    def test_winner_is_verified_and_annotated(self, arch):
        job = make_job(arch, router="satmap", seed=9, gates=10, qubits=4)
        winner = race_portfolio(job, time_budget=10.0)
        assert winner.solved
        assert "portfolio winner=" in winner.notes
        swaps = verify_routing(job.circuit(), winner.routed_circuit,
                               winner.initial_mapping, job.architecture())
        assert swaps == winner.swap_count

    def test_race_through_a_pool(self, arch):
        job = make_job(arch, router="satmap", seed=13, gates=10, qubits=4)
        with WorkerPool(max_workers=2, mode="thread") as pool:
            winner = race_portfolio(job, time_budget=10.0,
                                    entrants=("sabre", "naive"), pool=pool)
        assert winner.solved
        assert winner.router_name in ("SABRE", "naive")

    def test_empty_portfolio_is_an_error(self, arch):
        job = make_job(arch)
        with pytest.raises(ValueError):
            race_portfolio(job, time_budget=1.0, entrants=())
