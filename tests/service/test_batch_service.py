"""End-to-end behaviour of the BatchRoutingService facade."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_many_routers
from repro.analysis.suite import tiny_suite
from repro.circuits.random_circuits import random_circuit
from repro.core.verifier import verify_routing
from repro.hardware.topologies import reduced_tokyo_architecture
from repro.service import BatchRoutingService, RoutingJob


@pytest.fixture
def arch():
    return reduced_tokyo_architecture(6)


def make_jobs(arch, count=4, router="sabre"):
    return [RoutingJob.from_circuit(
        random_circuit(4, 8 + 2 * index, seed=40 + index, name=f"batch_{index}"),
        arch, router=router) for index in range(count)]


class TestBatchBasics:
    def test_every_result_answers_its_job_in_order(self, arch):
        jobs = make_jobs(arch)
        with BatchRoutingService(mode="serial", time_budget=10.0) as service:
            results = service.route_batch(jobs)
        assert len(results) == len(jobs)
        for job, result in zip(jobs, results):
            assert result.solved
            assert result.circuit_name == job.name
            swaps = verify_routing(job.circuit(), result.routed_circuit,
                                   result.initial_mapping, job.architecture())
            assert swaps == result.swap_count

    def test_second_identical_batch_is_served_from_cache(self, arch, tmp_path):
        jobs = make_jobs(arch)
        with BatchRoutingService(mode="serial", time_budget=10.0,
                                 cache_dir=tmp_path) as service:
            first = service.route_batch(jobs)
            second = service.route_batch(jobs)
        assert service.cache.hits == len(jobs)
        assert [r.swap_count for r in first] == [r.swap_count for r in second]
        assert all("cache-hit" in result.notes for result in second)

    def test_duplicate_jobs_within_a_batch_hit_the_cache(self, arch):
        jobs = make_jobs(arch, count=2)
        with BatchRoutingService(mode="serial", time_budget=10.0) as service:
            results = service.route_batch(jobs + jobs)
        assert all(result.solved for result in results)
        assert service.cache.hits == 2

    def test_progress_callback_sees_every_job(self, arch):
        jobs = make_jobs(arch, count=3)
        seen = []
        with BatchRoutingService(mode="serial", time_budget=10.0) as service:
            service.route_batch(jobs, progress=lambda update: seen.append(update))
        assert [update.completed for update in seen] == [1, 2, 3]
        assert seen[-1].fraction == 1.0

    def test_telemetry_records_the_job_lifecycle(self, arch):
        jobs = make_jobs(arch, count=1)
        with BatchRoutingService(mode="serial", time_budget=10.0) as service:
            service.route_batch(jobs)
            service.route_batch(jobs)
        key = jobs[0].key
        kinds = [record["event"] for record in service.event_log.tail()
                 if record["job_key"] == key]
        assert kinds == ["queued", "started", "cache-store", "finished",
                         "queued", "cache-hit"]
        assert service.jobs_finished == 2

    def test_route_circuit_convenience(self, arch):
        circuit = random_circuit(4, 8, seed=77, name="conv")
        with BatchRoutingService(mode="serial", time_budget=10.0) as service:
            result = service.route_circuit(circuit, arch, router="naive")
        assert result.solved
        assert result.router_name == "naive"


class TestDeterminism:
    @pytest.mark.parametrize("workers,mode", [(1, "serial"), (2, "thread"),
                                              (2, "process")])
    def test_results_are_identical_regardless_of_worker_count(self, arch,
                                                              workers, mode):
        """Same batch, any executor: same swap counts in the same order."""
        jobs = make_jobs(arch, count=5, router="sabre")
        with BatchRoutingService(max_workers=workers, mode=mode,
                                 time_budget=30.0, cache=False) as service:
            results = service.route_batch(jobs)
        swap_counts = [result.swap_count for result in results]

        with BatchRoutingService(max_workers=1, mode="serial",
                                 time_budget=30.0, cache=False) as reference:
            expected = [r.swap_count for r in reference.route_batch(jobs)]
        assert swap_counts == expected

    def test_portfolio_batches_are_deterministic_for_deterministic_entrants(
            self, arch):
        jobs = make_jobs(arch, count=3, router="sabre")
        runs = []
        for _ in range(2):
            with BatchRoutingService(mode="serial", time_budget=30.0, cache=False,
                                     portfolio=("sabre", "naive")) as service:
                runs.append([r.swap_count for r in service.route_batch(jobs)])
        assert runs[0] == runs[1]


class TestServiceExperimentHarness:
    def test_run_many_routers_mixes_service_and_local_factories(self, arch):
        from repro.baselines import NaiveShortestPathRouter

        suite = tiny_suite()[:3]
        with BatchRoutingService(mode="serial", time_budget=10.0) as service:
            comparison = run_many_routers(
                {"SABRE": "sabre",
                 "naive": lambda: NaiveShortestPathRouter(time_budget=10.0)},
                suite, arch, service=service)
        assert comparison.solved_count("SABRE") == len(suite)
        assert comparison.solved_count("naive") == len(suite)

    def test_spec_string_without_service_runs_in_process(self, arch):
        # Since the repro.api redesign, spec strings resolve through the one
        # registry, so the harness no longer needs a service to run them.
        suite = tiny_suite()[:1]
        comparison = run_many_routers({"SABRE": "sabre:seed=1"}, suite, arch)
        assert comparison.solved_count("SABRE") == len(suite)

    def test_unknown_spec_string_fails_loudly(self, arch):
        with pytest.raises(KeyError):
            run_many_routers({"X": "no-such-router"}, tiny_suite()[:1], arch)
