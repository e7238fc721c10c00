"""Both HTTP fronts count each fact once: ``/v1/stats`` and ``/metrics``
read the same registry instruments, and the exposed families stay pinned."""

from __future__ import annotations

import http.client

import pytest

from repro.circuits.random_circuits import random_circuit
from repro.obs import check_exposition, parse_exposition
from repro.server import AdmissionController, QuotaExceededError, RoutingClient

ARCH = "tokyo6"
ROUTER = "sabre:seed=0"

#: Every gateway family after one routed job: name -> (type, label keys).
GATEWAY_FAMILIES = {
    "repro_cache_bytes": ("gauge", ()),
    "repro_cache_entries": ("gauge", ()),
    "repro_cache_evictions_total": ("counter", ()),
    "repro_cache_hits_total": ("counter", ()),
    "repro_cache_misses_total": ("counter", ()),
    "repro_cache_rejected_total": ("counter", ()),
    "repro_cache_stores_total": ("counter", ()),
    "repro_events_total": ("counter", ("level",)),
    "repro_gateway_job_seconds": ("histogram", ()),
    "repro_job_seconds": ("histogram", ()),
    "repro_queue_wait_seconds": ("histogram", ()),
    "repro_sat_solve_seconds": ("histogram", ()),
    "repro_server_admission_admitted_total": ("counter", ()),
    "repro_server_admission_rejected_total": ("counter", ("reason",)),
    "repro_server_bad_requests_total": ("counter", ()),
    "repro_server_completed_total": ("counter", ()),
    "repro_server_deduplicated_total": ("counter", ()),
    "repro_server_draining": ("gauge", ()),
    "repro_server_failed_total": ("counter", ()),
    "repro_server_info": ("gauge", ("version", "wire_version")),
    "repro_server_jobs_known": ("gauge", ()),
    "repro_server_jobs_open": ("gauge", ()),
    "repro_server_records_pruned_total": ("counter", ()),
    "repro_server_rejected_draining_total": ("counter", ()),
    "repro_server_requests_total": ("counter", ()),
    "repro_server_submitted_total": ("counter", ()),
    "repro_server_uptime_seconds": ("gauge", ()),
    "repro_slo_availability": ("gauge", ("route",)),
    "repro_slo_error_budget_burn_rate": ("gauge", ("route",)),
    "repro_slo_latency_seconds": ("gauge", ("quantile", "route")),
    "repro_slo_latency_target_seconds": ("gauge", ("quantile", "route")),
    "repro_slo_ok": ("gauge", ("route",)),
    "repro_slo_window_requests": ("gauge", ("route",)),
    "repro_solve_conflicts": ("histogram", ()),
    "repro_stage_seconds": ("histogram", ()),
    "repro_telemetry_events_total": ("counter", ("kind",)),
}

#: Every 2-shard fleet family after one routed job.
FLEET_FAMILIES = {
    "repro_cluster_admission_admitted_total": ("counter", ()),
    "repro_cluster_admission_rejected_total": ("counter", ("reason",)),
    "repro_cluster_bad_requests_total": ("counter", ()),
    "repro_cluster_dispatched_total": ("counter", ("shard",)),
    "repro_cluster_draining": ("gauge", ()),
    "repro_cluster_info": ("gauge", ("version", "wire_version", "workers")),
    "repro_cluster_jobs_open": ("gauge", ()),
    "repro_cluster_proxy_failures_total": ("counter", ()),
    "repro_cluster_rejected_draining_total": ("counter", ()),
    "repro_cluster_rejected_total": ("counter", ()),
    "repro_cluster_requests_total": ("counter", ()),
    "repro_cluster_retried_total": ("counter", ()),
    "repro_cluster_uptime_seconds": ("gauge", ()),
    "repro_cluster_worker_restarts_total": ("counter", ()),
    "repro_cluster_workers": ("gauge", ()),
    "repro_cluster_workers_alive": ("gauge", ()),
    "repro_events_total": ("counter", ()),
    "repro_fleet_bad_requests_total": ("counter", ("shard",)),
    "repro_fleet_cache_evictions_total": ("counter", ("shard",)),
    "repro_fleet_cache_hits_total": ("counter", ("shard",)),
    "repro_fleet_cache_misses_total": ("counter", ("shard",)),
    "repro_fleet_cache_rejected_total": ("counter", ("shard",)),
    "repro_fleet_cache_stores_total": ("counter", ("shard",)),
    "repro_fleet_completed_total": ("counter", ("shard",)),
    "repro_fleet_deduplicated_total": ("counter", ("shard",)),
    "repro_fleet_failed_total": ("counter", ("shard",)),
    "repro_fleet_jobs_open": ("gauge", ("shard",)),
    "repro_fleet_records_pruned_total": ("counter", ("shard",)),
    "repro_fleet_rejected_draining_total": ("counter", ("shard",)),
    "repro_fleet_requests_total": ("counter", ("shard",)),
    "repro_fleet_submitted_total": ("counter", ("shard",)),
    "repro_fleet_worker_up": ("gauge", ("shard",)),
    "repro_slo_availability": ("gauge", ("route",)),
    "repro_slo_error_budget_burn_rate": ("gauge", ("route",)),
    "repro_slo_latency_seconds": ("gauge", ("quantile", "route")),
    "repro_slo_latency_target_seconds": ("gauge", ("quantile", "route")),
    "repro_slo_ok": ("gauge", ("route",)),
    "repro_slo_window_requests": ("gauge", ("route",)),
}


def family_shapes(text: str) -> dict[str, tuple[str, tuple]]:
    """``name -> (type, label keys)`` of every family in an exposition."""
    shapes = {}
    for name, family in parse_exposition(text).items():
        keys = {key for sample in family.samples for key in sample.labels
                if key != "le"}
        shapes[name] = (family.type, tuple(sorted(keys)))
    return shapes


def sample_total(text: str, name: str, **labels) -> float:
    """The samples of ``name`` carrying ``labels``, summed."""
    family = parse_exposition(text)[name]
    return sum(sample.value for sample in family.samples
               if all(sample.labels.get(key) == value
                      for key, value in labels.items()))


def route_one(port: int) -> RoutingClient:
    client = RoutingClient(port=port, client_id="metrics", retry_quota=0)
    ticket = client.submit(random_circuit(4, 8, seed=3, name="metrics"),
                           architecture=ARCH, router=ROUTER)
    client.wait(ticket["job_id"], timeout=60)
    return client


def exercise_counters(port: int) -> RoutingClient:
    """One job, one dedup, one quota refusal (burst 2) and one bad body."""
    client = route_one(port)
    client.submit(random_circuit(4, 8, seed=3, name="metrics"),
                  architecture=ARCH, router=ROUTER)
    with pytest.raises(QuotaExceededError):
        client.submit(random_circuit(4, 8, seed=4, name="refused"),
                      architecture=ARCH, router=ROUTER)
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    connection.request("POST", "/v1/jobs", body=b"{not json")
    assert connection.getresponse().status == 400
    connection.close()
    return client


def assert_stats_match_metrics(counters: dict, admission: dict, text: str,
                               prefix: str) -> None:
    """Each counter equals its sample; the scrape itself is one request."""
    for name, value in counters.items():
        expected = value + 1 if name == "requests" else value
        assert sample_total(text, f"{prefix}_{name}_total") == expected, name
    assert (sample_total(text, f"{prefix}_admission_admitted_total")
            == admission["admitted"])
    for reason in ("quota", "backpressure"):
        assert sample_total(text, f"{prefix}_admission_rejected_total",
                            reason=reason) == admission[f"rejected_{reason}"]


class TestFamiliesArePinned:
    def test_gateway_families_after_one_job(self, gateway_factory):
        gateway = gateway_factory()
        text = route_one(gateway.port).metrics_text()
        assert check_exposition(text) == []
        assert family_shapes(text) == GATEWAY_FAMILIES

    def test_fleet_families_after_one_job(self, fleet_factory):
        fleet = fleet_factory(workers=2)
        text = route_one(fleet.port).metrics_text()
        assert check_exposition(text) == []
        assert family_shapes(text) == FLEET_FAMILIES


class TestStatsAndMetricsReadTheSameCounters:
    def test_gateway(self, gateway_factory):
        gateway = gateway_factory(admission=AdmissionController(
            rate=0.001, burst=2.0, max_pending=1000))
        client = exercise_counters(gateway.port)
        # The counters are registry instruments before any scrape.
        front = gateway.gateway
        assert front.metrics.get("repro_server_submitted_total").total() == 1
        stats = client.stats()
        text = client.metrics_text()
        assert check_exposition(text) == []
        counters = stats["gateway"]
        assert counters["submitted"] == 1
        assert counters["deduplicated"] == 1
        assert counters["completed"] == 1
        assert counters["bad_requests"] == 1
        assert stats["admission"]["rejected_quota"] == 1
        assert_stats_match_metrics(counters, stats["admission"], text,
                                   "repro_server")

    def test_fleet(self, fleet_factory):
        fleet = fleet_factory(workers=2, rate=0.001, burst=2.0)
        client = exercise_counters(fleet.port)
        stats = client.stats()
        text = client.metrics_text()
        assert check_exposition(text) == []
        counters = stats["fleet"]["dispatcher"]
        assert counters["dispatched"] == 2
        assert counters["rejected"] == 1
        assert counters["bad_requests"] == 1
        assert counters["worker_restarts"] == 0
        admission = stats["fleet"]["admission"]
        assert counters["rejected"] == (admission["rejected_quota"]
                                        + admission["rejected_backpressure"])
        assert_stats_match_metrics(counters, admission, text, "repro_cluster")
