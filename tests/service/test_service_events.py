"""Service job events: one EventLog, levels, counts, histograms, roll-ups."""

from __future__ import annotations

import importlib

import pytest

from repro.circuits.random_circuits import random_circuit
from repro.core.result import RoutingResult, RoutingStatus
from repro.hardware.topologies import line_architecture
from repro.obs import EventLog
from repro.server import RoutingClient, RoutingGateway
from repro.service import BatchRoutingService, RoutingJob
from repro.service import pool as pool_module

ARCH = line_architecture(5)


def make_job(router: str = "sabre", seed: int = 31) -> RoutingJob:
    circuit = random_circuit(4, 8, seed=seed, name=f"events_{seed}")
    return RoutingJob.from_circuit(circuit, ARCH, router=router)


def job_events(service: BatchRoutingService, job: RoutingJob) -> list[dict]:
    return [record for record in service.event_log.tail(limit=1000)
            if record["job_key"] == job.key]


class TestLifecycle:
    def test_each_job_step_is_one_debug_event_and_is_counted(self):
        job = make_job()
        with BatchRoutingService(mode="serial", time_budget=10.0) as service:
            result = service.route_one(job)
        records = job_events(service, job)
        assert [r["event"] for r in records] == [
            "queued", "started", "cache-store", "finished"]
        assert {r["level"] for r in records} == {"debug"}
        assert all(r["job_name"] == job.name for r in records)
        assert records[-1]["swaps"] == result.swap_count
        counts = service.event_log.counts_by_event()
        assert counts["queued"] == counts["finished"] == 1
        assert service.jobs_finished == 1

    def test_cache_hits_count_as_finished_work(self):
        job = make_job()
        with BatchRoutingService(mode="serial", time_budget=10.0) as service:
            service.route_one(job)
            service.route_one(job)
        assert service.event_log.counts_by_event()["cache-hit"] == 1
        assert service.jobs_finished == 2

    def test_counts_stay_exact_past_ring_eviction(self):
        log = EventLog(max_events=5)
        for index in range(12):
            log.emit("finished", level="debug", job_key=f"job-{index}")
        assert len(log) == 5
        assert log.tail()[0]["job_key"] == "job-7"  # oldest evicted
        assert log.counts_by_event() == {"finished": 12}

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(max_events=0)


class TestLevels:
    def test_below_threshold_emit_is_counted_but_not_kept(self):
        log = EventLog(level="info")
        assert log.emit("queued", level="debug", job_key="a") is None
        assert log.counts_by_event() == {"queued": 1}
        assert log.counts_by_level() == {"debug": 1}
        assert log.dropped == 1
        assert log.tail() == []

    def test_failed_is_an_error_event(self, monkeypatch):
        def timed_out(job, time_budget, fallback):
            return RoutingResult(status=RoutingStatus.TIMEOUT,
                                 router_name="SABRE")

        monkeypatch.setattr(pool_module, "_execute", timed_out)
        job = make_job()
        with BatchRoutingService(mode="serial", time_budget=10.0) as service:
            assert not service.route_one(job).solved
        (failed,) = service.event_log.tail(event="failed")
        assert failed["level"] == "error"
        assert failed["status"] == "timeout"
        assert "finished" not in service.event_log.counts_by_event()

    def test_fallback_and_cache_reject_are_warnings(self, monkeypatch):
        real_execute = pool_module._execute

        def rescued(job, time_budget, fallback):
            result = real_execute(job, time_budget, fallback)
            result.notes = "fallback=naive after sabre timeout"
            return result

        monkeypatch.setattr(pool_module, "_execute", rescued)
        with BatchRoutingService(mode="serial", time_budget=10.0) as service:
            service.route_one(make_job(seed=32))
        (fallback,) = service.event_log.tail(event="fallback")
        assert fallback["level"] == "warning"

        monkeypatch.setattr(pool_module, "_execute", real_execute)
        with BatchRoutingService(mode="serial", time_budget=10.0) as service:
            service.cache.put = lambda key_job, result: False
            service.route_one(make_job(seed=33))
        (reject,) = service.event_log.tail(event="cache-reject")
        assert reject["level"] == "warning"


class TestMetricsAndRollups:
    def test_finished_jobs_feed_the_five_histograms(self):
        job = make_job(router="satmap")
        with BatchRoutingService(mode="serial", cache=False,
                                 time_budget=10.0) as service:
            result = service.route_one(job)
        assert result.solved
        metrics = service.metrics
        assert metrics.get("repro_job_seconds").count == 1
        stage = metrics.get("repro_stage_seconds")
        for name in ("encode", "solve", "extract"):
            assert stage.snapshot(stage=name)["count"] == 1
        assert metrics.get("repro_solve_conflicts").count == 1
        assert metrics.get("repro_queue_wait_seconds").count == 1
        backend = result.solver_stats["backend"]
        assert metrics.get("repro_sat_solve_seconds").snapshot(
            backend=backend)["count"] == 1

    def test_summary_renders_counts_stages_and_throughput(self):
        with BatchRoutingService(mode="serial", cache=False,
                                 time_budget=10.0) as service:
            service.route_one(make_job(router="satmap"))
        text = service.summary()
        for needle in ("queued", "finished", "solver time", "· solve",
                       "throughput"):
            assert needle in text
        assert service.throughput() > 0.0


class TestGatewayLog:
    def test_gateway_counts_job_steps_without_keeping_them(self,
                                                           gateway_factory):
        handle = gateway_factory()
        assert handle.gateway.service.event_log is handle.gateway.event_log
        client = RoutingClient(port=handle.port, client_id="events")
        job = make_job()
        ticket = client.submit(job.circuit(), architecture=ARCH,
                               router="sabre")
        assert client.wait(ticket["job_id"], timeout=30).solved
        payload = client.events(limit=1000)
        assert all(event["level"] != "debug" for event in payload["events"])
        assert "debug" in payload["counts"]
        assert payload["dropped"] >= 4  # queued/started/cache-store/finished
        assert client.stats()["telemetry"]["finished"] == 1


class TestRemovedSurfaces:
    @pytest.mark.parametrize("build", [
        lambda: BatchRoutingService(telemetry=None),
        lambda: BatchRoutingService(event_log=EventLog()),
        lambda: RoutingGateway(event_log=EventLog()),
    ], ids=["service-telemetry", "service-event_log", "gateway-event_log"])
    def test_removed_keywords_raise(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("module", ["repro.service.telemetry",
                                        "repro.service.registry"])
    def test_removed_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
