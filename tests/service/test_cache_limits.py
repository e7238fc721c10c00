"""Size-bounded ResultCache: LRU eviction, counters, telemetry (ISSUE 4)."""

from __future__ import annotations

import os
import time

import pytest

from repro.api.routing import route
from repro.circuits.random_circuits import random_circuit
from repro.hardware.topologies import line_architecture
from repro.service import BatchRoutingService, ResultCache, RoutingJob


def solved_pair(seed: int, architecture):
    """A (job, verified result) pair the cache will accept."""
    circuit = random_circuit(4, 6, seed=seed, name=f"bounded_{seed}")
    job = RoutingJob.from_circuit(circuit, architecture, router="sabre",
                                  options={"seed": 0})
    result = route(circuit, architecture, spec="sabre:seed=0")
    assert result.solved
    return job, result


@pytest.fixture
def architecture():
    return line_architecture(4)


@pytest.fixture
def pairs(architecture):
    return [solved_pair(seed, architecture) for seed in range(4)]


def entry_size(tmp_path, pairs) -> int:
    """Serialised size of one entry, measured on a throwaway cache."""
    probe = ResultCache(directory=tmp_path / "probe")
    job, result = pairs[0]
    assert probe.put(job, result)
    return probe.total_bytes()


class TestUnbounded:
    def test_default_cache_never_evicts(self, tmp_path, pairs):
        cache = ResultCache(directory=tmp_path / "cache")
        for job, result in pairs:
            assert cache.put(job, result)
        assert cache.evictions == 0
        assert len(cache) == len(pairs)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)


class TestLruEviction:
    def test_oldest_entry_evicted_first(self, tmp_path, pairs):
        size = entry_size(tmp_path, pairs)
        cache = ResultCache(directory=tmp_path / "cache",
                            max_bytes=int(size * 2.5))
        for job, result in pairs[:3]:
            assert cache.put(job, result)
        # 3 entries never fit in 2.5x: the first-stored one is gone
        assert cache.evictions == 1
        assert cache.get(pairs[0][0]) is None
        assert cache.get(pairs[1][0]) is not None
        assert cache.get(pairs[2][0]) is not None

    def test_a_hit_refreshes_recency(self, tmp_path, pairs):
        size = entry_size(tmp_path, pairs)
        cache = ResultCache(directory=tmp_path / "cache",
                            max_bytes=int(size * 2.5))
        cache.put(*pairs[0])
        cache.put(*pairs[1])
        assert cache.get(pairs[0][0]) is not None  # 0 is now most recent
        cache.put(*pairs[2])  # must evict 1, not 0
        assert cache.get(pairs[0][0]) is not None
        assert cache.get(pairs[1][0]) is None

    def test_most_recent_store_always_survives(self, tmp_path, pairs):
        size = entry_size(tmp_path, pairs)
        cache = ResultCache(directory=tmp_path / "cache",
                            max_bytes=max(1, size // 2))
        assert cache.put(*pairs[0])
        assert cache.get(pairs[0][0]) is not None
        assert cache.put(*pairs[1])
        # the newest oversized entry is kept; the older one was evicted
        assert cache.get(pairs[1][0]) is not None
        assert cache.get(pairs[0][0]) is None

    def test_eviction_removes_disk_file(self, tmp_path, pairs):
        size = entry_size(tmp_path, pairs)
        directory = tmp_path / "cache"
        cache = ResultCache(directory=directory, max_bytes=int(size * 1.5))
        cache.put(*pairs[0])
        cache.put(*pairs[1])
        remaining = list(directory.glob("*.json"))
        assert len(remaining) == 1
        assert remaining[0].stem == pairs[1][0].content_hash()

    def test_memory_only_cache_is_bounded_too(self, pairs):
        probe = ResultCache()
        probe.put(*pairs[0])
        per_entry = probe.total_bytes()
        cache = ResultCache(max_bytes=int(per_entry * 1.5))
        cache.put(*pairs[0])
        cache.put(*pairs[1])
        assert cache.evictions == 1
        assert cache.get(pairs[0][0]) is None
        assert cache.get(pairs[1][0]) is not None

    def test_lru_order_survives_restart_via_mtime(self, tmp_path, pairs):
        size = entry_size(tmp_path, pairs)
        directory = tmp_path / "cache"
        first = ResultCache(directory=directory)
        first.put(*pairs[0])
        first.put(*pairs[1])
        # age the first entry on disk so a fresh process sees it as cold
        old = time.time() - 3600
        path = directory / f"{pairs[0][0].content_hash()}.json"
        os.utime(path, (old, old))
        second = ResultCache(directory=directory, max_bytes=int(size * 2.5))
        second.put(*pairs[2])
        assert second.evictions == 1
        assert not path.exists()

    def test_stats_expose_budget_and_evictions(self, tmp_path, pairs):
        size = entry_size(tmp_path, pairs)
        cache = ResultCache(directory=tmp_path / "cache",
                            max_bytes=int(size * 1.5))
        cache.put(*pairs[0])
        cache.put(*pairs[1])
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["max_bytes"] == int(size * 1.5)
        assert 0 < stats["total_bytes"] <= stats["max_bytes"]


class TestServiceIntegration:
    def test_service_emits_cache_evict_telemetry(self, tmp_path, architecture):
        circuits = [random_circuit(4, 6, seed=900 + index,
                                   name=f"evict_{index}")
                    for index in range(3)]
        probe = ResultCache(directory=tmp_path / "probe")
        probe_job = RoutingJob.from_circuit(circuits[0], architecture,
                                            router="sabre", options={"seed": 0})
        probe_result = route(circuits[0], architecture, spec="sabre:seed=0")
        probe.put(probe_job, probe_result)
        size = probe.total_bytes()

        with BatchRoutingService(mode="serial", time_budget=5.0,
                                 cache_dir=tmp_path / "cache",
                                 cache_max_bytes=int(size * 1.5)) as service:
            jobs = [RoutingJob.from_circuit(circuit, architecture,
                                            router="sabre",
                                            options={"seed": 0})
                    for circuit in circuits]
            results = service.route_batch(jobs)
            assert all(result.solved for result in results)
            assert service.cache.evictions >= 1
            assert service.event_log.counts_by_event()["cache-evict"] >= 1
            evict_events = service.event_log.tail(event="cache-evict")
            assert evict_events[0]["level"] == "warning"
            assert evict_events[0]["evicted"] >= 1
