"""End-to-end gateway behaviour through the blocking client."""

from __future__ import annotations

import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.api.registry import describe_routers
from repro.circuits.random_circuits import random_circuit
from repro.hardware.devices import device_records
from repro.server import RoutingClient, ServerError
from repro.service import BatchRoutingService


@pytest.fixture
def client(gateway):
    return RoutingClient(port=gateway.port, client_id="tester")


@pytest.fixture
def circuit():
    return random_circuit(4, 8, seed=11, name="gateway_test")


class TestInquiries:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["wire_version"] == 1

    def test_routers_endpoint_matches_registry_serialiser(self, client):
        assert client.routers() == describe_routers()
        noise = client.routers(capability="noise_aware")
        assert [entry["name"] for entry in noise] == ["noise-satmap"]

    def test_devices_endpoint_matches_cli_serialiser(self, client):
        assert client.devices() == device_records()
        assert "tokyo8" in client.architectures()

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404


class TestJobLifecycle:
    def test_submit_poll_fetch(self, client, circuit):
        ticket = client.submit(circuit, architecture="tokyo6",
                               router="sabre:seed=0", name="gateway_test")
        assert ticket["status"] in ("queued", "running", "done")
        assert ticket["deduplicated"] is False
        assert ticket["spec"] == {"router": "sabre", "options": {"seed": 0}}
        result = client.wait(ticket["job_id"], timeout=30)
        assert result.solved
        assert result.routed_circuit is not None
        status = client.status(ticket["job_id"])
        assert status["status"] == "done"
        assert status["solved"] is True

    def test_long_poll_returns_when_done(self, client, circuit):
        ticket = client.submit(circuit, architecture="tokyo6", router="sabre")
        status = client.status(ticket["job_id"], wait=10.0)
        assert status["status"] == "done"

    def test_identical_submissions_share_one_job(self, client, gateway, circuit):
        first = client.submit(circuit, architecture="tokyo6", router="sabre")
        second = client.submit(circuit, architecture="tokyo6", router="sabre")
        assert second["job_id"] == first["job_id"]
        assert second["deduplicated"] is True
        assert second["submissions"] == 2
        client.wait(first["job_id"], timeout=30)
        assert gateway.gateway.counters["submitted"] == 1
        assert gateway.gateway.counters["deduplicated"] == 1

    def test_different_budgets_are_different_jobs(self, client, circuit):
        one = client.submit(circuit, architecture="tokyo6", router="sabre",
                            time_budget=3.0)
        two = client.submit(circuit, architecture="tokyo6", router="sabre",
                            time_budget=4.0)
        assert one["job_id"] != two["job_id"]

    def test_unknown_job_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.status("deadbeef")
        assert excinfo.value.status == 404

    def test_result_before_done_409(self, client, gateway, circuit):
        from repro.hardware.topologies import line_architecture
        from repro.server.app import JobRecord
        from repro.service import RoutingJob

        # Plant a record the dispatcher never saw: still "queued".
        job = RoutingJob.from_circuit(circuit, line_architecture(4),
                                      router="sabre")
        gateway.gateway.jobs["still-queued"] = JobRecord(
            job_id="still-queued", job=job)
        with pytest.raises(ServerError) as excinfo:
            client.result("still-queued")
        assert excinfo.value.status == 409
        del gateway.gateway.jobs["still-queued"]

    def test_result_endpoint_carries_full_payload(self, client, circuit):
        ticket = client.submit(circuit, architecture="tokyo6", router="sabre")
        client.wait(ticket["job_id"], timeout=30)
        payload = client._request("GET", f"/v1/jobs/{ticket['job_id']}/result")
        assert payload["solved"] is True
        assert payload["result"]["solved"] is True
        assert "routed_qasm" in payload["result"]

    def test_jobs_listing(self, client, circuit):
        ticket = client.submit(circuit, architecture="tokyo6", router="sabre")
        client.wait(ticket["job_id"], timeout=30)
        listed = client.jobs()
        assert any(entry["job_id"] == ticket["job_id"] for entry in listed)


class TestBadRequests:
    def test_wrong_wire_version_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/jobs",
                            payload={"wire_version": 99, "qasm": "x"})
        assert excinfo.value.status == 400
        assert "wire_version" in str(excinfo.value)

    def test_non_json_body_400(self, gateway):
        request = urllib.request.Request(
            f"{gateway.url}/v1/jobs", data=b"not json at all",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_architecture_400(self, client, circuit):
        with pytest.raises(ServerError) as excinfo:
            client.submit(circuit, architecture="atlantis", router="sabre")
        assert excinfo.value.status == 400

    def test_out_of_range_router_option_400(self, client, circuit):
        with pytest.raises(ServerError) as excinfo:
            client.submit(circuit, architecture="tokyo8",
                          router="satmap:slice_size=-1")
        assert excinfo.value.status == 400
        assert "slice_size" in str(excinfo.value)

    @pytest.mark.parametrize("option", ["incremental=false", "strategy=bogus"])
    def test_removed_router_option_400(self, client, circuit, option):
        with pytest.raises(ServerError) as excinfo:
            client.submit(circuit, architecture="tokyo8",
                          router=f"satmap:{option}")
        assert excinfo.value.status == 400
        assert option.split("=")[0] in str(excinfo.value)

    def test_malformed_request_line_gets_http_400(self, gateway):
        import socket

        with socket.create_connection(("127.0.0.1", gateway.port),
                                      timeout=10) as sock:
            sock.sendall(b"garbage\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_oversized_body_gets_http_413(self, gateway):
        import socket

        with socket.create_connection(("127.0.0.1", gateway.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\n"
                         b"Content-Length: 99999999999\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 413")

    def test_negative_content_length_gets_http_400(self, gateway):
        import socket

        with socket.create_connection(("127.0.0.1", gateway.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\n"
                         b"Content-Length: -5\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_oversized_header_line_gets_http_400(self, gateway):
        import socket

        with socket.create_connection(("127.0.0.1", gateway.port),
                                      timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Bomb: "
                         + b"a" * 100_000 + b"\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_header_count_is_capped(self, gateway):
        import socket

        with socket.create_connection(("127.0.0.1", gateway.port),
                                      timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n"
                         + b"".join(b"X-H%d: v\r\n" % i for i in range(200))
                         + b"\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")


class TestMetricsAndStats:
    def test_metrics_expose_job_and_cache_counters(self, client, circuit):
        ticket = client.submit(circuit, architecture="tokyo6", router="sabre")
        client.submit(circuit, architecture="tokyo6", router="sabre")
        client.wait(ticket["job_id"], timeout=30)
        text = client.metrics_text()
        metrics = {}
        for line in text.splitlines():
            if line.startswith("#") or "{" in line.split(" ")[0]:
                continue
            name, _, value = line.partition(" ")
            metrics[name] = float(value)
        assert metrics["repro_server_submitted_total"] == 1
        assert metrics["repro_server_deduplicated_total"] == 1
        assert metrics["repro_server_completed_total"] == 1
        assert 'repro_telemetry_events_total{kind="finished"} 1' in text
        assert "repro_cache_stores_total 1" in text
        assert 'wire_version="1"' in text

    def test_metrics_carry_the_per_job_sat_solve_histogram(self, client,
                                                           circuit):
        ticket = client.submit(circuit, architecture="tokyo6",
                               router="satmap")
        assert client.wait(ticket["job_id"], timeout=30).solved
        text = client.metrics_text()
        assert re.search(
            r'^repro_sat_solve_seconds_count\{backend="(python|native)"\} 1$',
            text, re.MULTILINE)

    def test_stats_json(self, client, circuit):
        ticket = client.submit(circuit, architecture="tokyo6", router="sabre")
        client.wait(ticket["job_id"], timeout=30)
        stats = client.stats()
        assert stats["gateway"]["submitted"] == 1
        assert stats["telemetry"]["finished"] == 1
        assert stats["cache"]["stores"] == 1
        assert stats["draining"] is False

    def test_metrics_is_plain_text(self, gateway):
        with urllib.request.urlopen(f"{gateway.url}/metrics") as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            body = response.read().decode()
        assert body.startswith("# HELP repro_server_info")


class TestRecordLifecycle:
    def test_failed_record_is_retried_not_deduplicated(self, client, gateway,
                                                       circuit):
        ticket = client.submit(circuit, architecture="tokyo6", router="sabre")
        client.wait(ticket["job_id"], timeout=30)
        # Simulate a crashed attempt: the record finished with an error.
        record = gateway.gateway.jobs[ticket["job_id"]]
        record.error = "worker exploded"
        record.result = None
        with pytest.raises(ServerError):
            client.result(ticket["job_id"])  # error, not a KeyError
        retry = client.submit(circuit, architecture="tokyo6", router="sabre")
        assert retry["job_id"] == ticket["job_id"]
        assert retry["deduplicated"] is False  # rescheduled, not poisoned
        result = client.wait(retry["job_id"], timeout=30)
        assert result.solved

    def test_unsolved_record_is_retried_not_deduplicated(self, client,
                                                         gateway, circuit):
        from repro.core.result import RoutingResult, RoutingStatus

        ticket = client.submit(circuit, architecture="tokyo6", router="sabre")
        client.wait(ticket["job_id"], timeout=30)
        # Simulate a timed-out attempt: done, no error, but unsolved.
        record = gateway.gateway.jobs[ticket["job_id"]]
        record.result = RoutingResult(status=RoutingStatus.TIMEOUT,
                                      router_name="sabre")
        retry = client.submit(circuit, architecture="tokyo6", router="sabre")
        assert retry["deduplicated"] is False  # rescheduled, not pinned
        assert client.wait(retry["job_id"], timeout=30).solved

    def test_finished_records_are_pruned_past_max_records(self,
                                                          gateway_factory):
        gateway = gateway_factory(max_records=2)
        client = RoutingClient(port=gateway.port)
        for seed in range(4):
            ticket = client.submit(random_circuit(4, 6, seed=800 + seed,
                                                  name=f"prune_{seed}"),
                                   architecture="tokyo6", router="sabre")
            client.wait(ticket["job_id"], timeout=30)
        assert len(gateway.gateway.jobs) <= 2
        assert gateway.gateway.counters["records_pruned"] >= 2


class TestDrain:
    def test_drain_completes_queued_jobs_and_closes(self, gateway_factory):
        service = BatchRoutingService(mode="serial", time_budget=5.0)
        release = threading.Event()
        route_batch = service.route_batch

        def held_route_batch(jobs, **kwargs):
            # The dispatcher stays inside its first batch until the refused
            # submit below has been observed, so the drain overlaps
            # in-flight work however fast the solves are.
            release.wait(timeout=60)
            return route_batch(jobs, **kwargs)

        service.route_batch = held_route_batch
        gateway = gateway_factory(service=service)
        client = RoutingClient(port=gateway.port)
        try:
            tickets = [client.submit(random_circuit(4, 10, seed=seed,
                                                    name=f"drain_gw_{seed}"),
                                     architecture="tokyo6", router="satmap",
                                     time_budget=1.0)
                       for seed in range(3)]
            drain = client.drain()
            assert drain["draining"] is True
            # Submissions are refused from now on ...
            with pytest.raises(ServerError) as excinfo:
                client.submit(random_circuit(4, 6, seed=99),
                              architecture="tokyo6", router="sabre")
            assert excinfo.value.status == 503
        finally:
            release.set()
        # ... but queued jobs still complete and the records hold results.
        gateway.stop(timeout=120)
        records = gateway.gateway.jobs
        assert len(records) == 3
        for ticket in tickets:
            record = records[ticket["job_id"]]
            assert record.status == "done"
            assert record.result is not None and record.result.solved
