"""Result cache: hit/miss accounting, persistence, and corruption rejection."""

from __future__ import annotations

import json

import pytest

from repro.circuits.random_circuits import random_circuit
from repro.hardware.topologies import line_architecture
from repro.api import get_router
from repro.service import (
    ResultCache,
    RoutingJob,
    payload_to_result,
    result_to_payload,
)


@pytest.fixture
def job() -> RoutingJob:
    circuit = random_circuit(4, 10, seed=11, name="cache_test")
    return RoutingJob.from_circuit(circuit, line_architecture(5), router="sabre")


@pytest.fixture
def solved_result(job):
    router = get_router(job.router, time_budget=10.0)
    result = router.route(job.circuit(), job.architecture())
    assert result.solved
    return result


class TestSerialization:
    def test_round_trip_preserves_everything_relevant(self, job, solved_result):
        rebuilt = payload_to_result(result_to_payload(solved_result))
        assert rebuilt.status == solved_result.status
        assert rebuilt.swap_count == solved_result.swap_count
        assert rebuilt.initial_mapping == solved_result.initial_mapping
        assert rebuilt.final_mapping == solved_result.final_mapping
        assert rebuilt.optimal == solved_result.optimal
        assert len(rebuilt.routed_circuit) == len(solved_result.routed_circuit)

    def test_unsolved_result_cannot_be_serialised(self, job):
        from repro.core.result import RoutingResult, RoutingStatus

        with pytest.raises(ValueError):
            result_to_payload(RoutingResult(status=RoutingStatus.TIMEOUT,
                                            router_name="x"))


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path, job, solved_result):
        cache = ResultCache(directory=tmp_path)
        assert cache.get(job) is None
        assert cache.misses == 1
        assert cache.put(job, solved_result)
        hit = cache.get(job)
        assert hit is not None
        assert hit.swap_count == solved_result.swap_count
        assert cache.hits == 1
        assert "cache-hit" in hit.notes

    def test_memory_only_cache_works(self, job, solved_result):
        cache = ResultCache(directory=None)
        cache.put(job, solved_result)
        assert cache.get(job) is not None
        assert len(cache) == 1

    def test_disk_entries_survive_a_fresh_cache_instance(self, tmp_path, job,
                                                         solved_result):
        ResultCache(directory=tmp_path).put(job, solved_result)
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get(job) is not None
        assert fresh.hits == 1

    def test_different_job_is_a_miss(self, tmp_path, job, solved_result):
        cache = ResultCache(directory=tmp_path)
        cache.put(job, solved_result)
        other = RoutingJob.from_circuit(random_circuit(4, 10, seed=99),
                                        line_architecture(5), router="sabre")
        assert cache.get(other) is None
        assert cache.stats()["hit_rate"] == 0.0


class TestVerificationGate:
    def test_wrong_result_is_refused_at_put(self, tmp_path, job, solved_result):
        """A result claiming the wrong swap count never enters the cache."""
        cache = ResultCache(directory=tmp_path)
        solved_result.swap_count += 1
        assert not cache.put(job, solved_result)
        assert cache.rejected == 1
        assert len(cache) == 0

    def test_result_for_another_job_is_refused(self, tmp_path, job, solved_result):
        cache = ResultCache(directory=tmp_path)
        other = RoutingJob.from_circuit(random_circuit(4, 12, seed=5),
                                        line_architecture(5), router="sabre")
        assert not cache.put(other, solved_result)

    def test_corrupted_disk_entry_is_rejected_not_returned(self, tmp_path, job,
                                                           solved_result):
        """Regression: tampering with the on-disk JSON must yield a miss."""
        cache = ResultCache(directory=tmp_path)
        assert cache.put(job, solved_result)
        path = tmp_path / f"{job.content_hash()}.json"
        payload = json.loads(path.read_text())
        # claim one swap fewer than the routed circuit actually contains
        payload["swap_count"] = max(0, payload["swap_count"] - 1)
        path.write_text(json.dumps(payload))

        cache.clear_memory()
        assert cache.get(job) is None
        assert cache.rejected >= 1
        assert not path.exists(), "corrupted entry should be evicted"

    def test_garbage_json_is_rejected_not_returned(self, tmp_path, job,
                                                   solved_result):
        cache = ResultCache(directory=tmp_path)
        assert cache.put(job, solved_result)
        path = tmp_path / f"{job.content_hash()}.json"
        path.write_text("{not valid json")
        cache.clear_memory()
        assert cache.get(job) is None

    def test_tampered_routed_circuit_is_rejected(self, tmp_path, job, solved_result):
        """Swapping in a different routed circuit fails independent verification."""
        cache = ResultCache(directory=tmp_path)
        assert cache.put(job, solved_result)
        path = tmp_path / f"{job.content_hash()}.json"
        payload = json.loads(path.read_text())
        # drop the final gate: per-qubit sequences no longer match the original
        lines = payload["routed_qasm"].strip().splitlines()
        payload["routed_qasm"] = "\n".join(lines[:-1]) + "\n"
        path.write_text(json.dumps(payload))
        cache.clear_memory()
        assert cache.get(job) is None
        assert cache.rejected >= 1
