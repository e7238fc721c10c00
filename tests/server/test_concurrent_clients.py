"""Concurrent submission through :class:`RoutingClient` (ISSUE 4 satellite).

N threads hammer one gateway with identical and distinct jobs.  The
contracts under test:

* identical content hashes collapse into a *single* solve no matter how many
  clients submit them concurrently;
* a burst past the token-bucket quota is refused with 429 + retry-after
  while other clients keep being served;
* a drain initiated while jobs are in flight completes every accepted job
  (best-so-far within its budget) and loses no result; a waiter parked
  before the drain gets its result on the same connection.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.circuits.random_circuits import random_circuit
from repro.server import AdmissionController, QuotaExceededError, RoutingClient
from repro.service import BatchRoutingService


def fan_out(worker, count: int) -> list:
    """Run ``worker(index)`` on ``count`` threads; return results in order."""
    results: list = [None] * count
    errors: list = []

    def run(index: int) -> None:
        try:
            results[index] = worker(index)
        except BaseException as error:  # surfaced to the test below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        raise errors[0]
    return results


class TestSingleSolveDedup:
    def test_identical_jobs_from_many_threads_solve_once(self, gateway_factory):
        gateway = gateway_factory()
        circuit = random_circuit(4, 10, seed=5, name="shared_work")

        def submit_and_wait(index: int):
            client = RoutingClient(port=gateway.port,
                                   client_id=f"client-{index}")
            ticket = client.submit(circuit, architecture="tokyo6",
                                   router="sabre:seed=1")
            result = client.wait(ticket["job_id"], timeout=60)
            return ticket, result

        outcomes = fan_out(submit_and_wait, 8)
        job_ids = {ticket["job_id"] for ticket, _ in outcomes}
        assert len(job_ids) == 1
        swaps = {result.swap_count for _, result in outcomes}
        assert len(swaps) == 1
        counters = gateway.gateway.counters
        assert counters["submitted"] == 1
        assert counters["deduplicated"] == 7
        # the service really solved it once: one "finished" event, total
        counts = gateway.gateway.service.event_log.counts_by_event()
        assert counts["finished"] == 1

    def test_distinct_jobs_all_solve(self, gateway_factory):
        gateway = gateway_factory()

        def submit_and_wait(index: int):
            client = RoutingClient(port=gateway.port,
                                   client_id=f"client-{index}")
            circuit = random_circuit(4, 8, seed=100 + index,
                                     name=f"distinct_{index}")
            result = client.route(circuit, architecture="tokyo6",
                                  router="sabre:seed=1", timeout=60)
            return result

        results = fan_out(submit_and_wait, 6)
        assert all(result.solved for result in results)
        assert gateway.gateway.counters["submitted"] == 6
        assert gateway.gateway.counters["deduplicated"] == 0

    def test_mixed_identical_and_distinct(self, gateway_factory):
        gateway = gateway_factory()
        shared = random_circuit(4, 10, seed=9, name="mixed_shared")

        def submit_and_wait(index: int):
            client = RoutingClient(port=gateway.port,
                                   client_id=f"client-{index}")
            if index % 2 == 0:
                circuit = shared
            else:
                circuit = random_circuit(4, 8, seed=200 + index,
                                         name=f"mixed_{index}")
            return client.route(circuit, architecture="tokyo6",
                                router="sabre:seed=1", timeout=60)

        results = fan_out(submit_and_wait, 8)
        assert all(result.solved for result in results)
        # 4 even indices share one job; 4 odd ones are unique
        assert gateway.gateway.counters["submitted"] == 5
        assert gateway.gateway.counters["deduplicated"] == 3


class TestQuotaUnderBurst:
    def test_burst_past_bucket_gets_429_with_retry_after(self, gateway_factory):
        admission = AdmissionController(rate=0.5, burst=3.0, max_pending=1000)
        gateway = gateway_factory(admission=admission)
        client = RoutingClient(port=gateway.port, client_id="greedy",
                               retry_quota=0)
        accepted = 0
        refusals: list[QuotaExceededError] = []
        for index in range(8):
            circuit = random_circuit(4, 6, seed=300 + index)
            try:
                client.submit(circuit, architecture="tokyo6", router="sabre")
                accepted += 1
            except QuotaExceededError as error:
                refusals.append(error)
        assert accepted == 3
        assert len(refusals) == 5
        assert all(error.retry_after > 0.0 for error in refusals)
        assert all(error.payload["reason"] == "quota" for error in refusals)
        # a different client id still has its own full bucket
        other = RoutingClient(port=gateway.port, client_id="patient")
        other.submit(random_circuit(4, 6, seed=400),
                     architecture="tokyo6", router="sabre")
        stats = gateway.gateway.admission.stats()
        assert stats["rejected_quota"] == 5

    def test_burst_from_threads_only_quota_violators_refused(self, gateway_factory):
        admission = AdmissionController(rate=1.0, burst=4.0, max_pending=1000)
        gateway = gateway_factory(admission=admission)

        def submit(index: int):
            client = RoutingClient(port=gateway.port, client_id="swarm",
                                   retry_quota=0)
            circuit = random_circuit(4, 6, seed=500 + index)
            try:
                return ("ok", client.submit(circuit, architecture="tokyo6",
                                            router="sabre"))
            except QuotaExceededError as error:
                return ("429", error)

        outcomes = fan_out(submit, 8)
        accepted = [o for kind, o in outcomes if kind == "ok"]
        refused = [o for kind, o in outcomes if kind == "429"]
        assert len(accepted) == 4
        assert len(refused) == 4

    def test_backpressure_surfaces_as_429(self, gateway_factory):
        admission = AdmissionController(rate=1000.0, burst=1000.0,
                                        max_pending=1)
        gateway = gateway_factory(admission=admission)
        client = RoutingClient(port=gateway.port, client_id="pusher",
                               retry_quota=0)
        # First submission occupies the only pending slot (satmap is slow
        # enough on a real circuit that the dispatcher is still busy).
        client.submit(random_circuit(4, 12, seed=600),
                      architecture="tokyo6", router="satmap", time_budget=2.0)
        with pytest.raises(QuotaExceededError) as excinfo:
            client.submit(random_circuit(4, 12, seed=601),
                          architecture="tokyo6", router="satmap",
                          time_budget=2.0)
        assert excinfo.value.payload["reason"] == "backpressure"


def hold_batches(service: BatchRoutingService) -> threading.Event:
    """Stall every ``service.route_batch`` call until the event is set."""
    release = threading.Event()
    route_batch = service.route_batch

    def held(jobs, **kwargs):
        release.wait(60)
        return route_batch(jobs, **kwargs)

    service.route_batch = held
    return release


def wait_for_connections(gateway, count: int, timeout: float = 30.0) -> None:
    """Block until the gateway holds exactly ``count`` open connections."""
    deadline = time.monotonic() + timeout
    while len(gateway.gateway._connections) != count:
        assert time.monotonic() < deadline, (
            f"gateway never held {count} connections")
        time.sleep(0.01)


class TestGracefulDrainUnderLoad:
    def test_drain_mid_flight_returns_best_so_far(self, gateway_factory):
        service = BatchRoutingService(mode="serial", time_budget=5.0)
        gateway = gateway_factory(service=service, max_batch=2)
        release = hold_batches(service)
        client = RoutingClient(port=gateway.port, client_id="drainer")
        tickets = [client.submit(random_circuit(4, 10, seed=700 + index,
                                                name=f"drain_{index}"),
                                 architecture="tokyo6",
                                 router="satmap", time_budget=1.0)
                   for index in range(4)]

        # Collect results on long-poll threads *before* initiating drain;
        # the jobs are held until all four waiters are parked on the
        # gateway, so none can arrive after the listener has closed.
        def wait_for(index: int):
            waiter = RoutingClient(port=gateway.port,
                                   client_id=f"waiter-{index}")
            return waiter.wait(tickets[index]["job_id"], timeout=60)

        collector: list = []
        threads = [threading.Thread(
            target=lambda i=i: collector.append((i, wait_for(i))))
            for i in range(4)]
        try:
            wait_for_connections(gateway, 0)
            for thread in threads:
                thread.start()
            wait_for_connections(gateway, 4)
            client.drain()
        finally:
            release.set()
        for thread in threads:
            thread.join(timeout=120)
        gateway.stop(timeout=120)

        assert len(collector) == 4
        for _, result in collector:
            assert result.solved  # best-so-far within the 1s budget
        records = gateway.gateway.jobs
        assert all(record.status == "done" for record in records.values())

    def test_a_parked_waiter_gets_its_result_on_the_same_connection(
            self, gateway_factory):
        service = BatchRoutingService(mode="serial", time_budget=5.0)
        gateway = gateway_factory(service=service)
        release = hold_batches(service)
        try:
            client = RoutingClient(port=gateway.port, client_id="drainer")
            ticket = client.submit(random_circuit(4, 6, seed=710,
                                                  name="parked"),
                                   architecture="tokyo6", router="sabre:seed=0")
            wait_for_connections(gateway, 0)
            replies: list = []

            def long_poll() -> None:
                connection = http.client.HTTPConnection(
                    "127.0.0.1", gateway.port, timeout=60)
                connection.request(
                    "GET", f"/v1/jobs/{ticket['job_id']}"
                           "?wait=30&include_result=1")
                response = connection.getresponse()
                replies.append((response.status,
                                json.loads(response.read())))
                connection.close()

            waiter = threading.Thread(target=long_poll)
            waiter.start()
            wait_for_connections(gateway, 1)
            assert client.drain()["draining"] is True
            record = gateway.gateway.jobs[ticket["job_id"]]
            assert gateway.gateway.draining and record.status != "done"
        finally:
            release.set()
        waiter.join(timeout=60)
        gateway.stop(timeout=60)

        # The drain emptied the queue and closed the listener; the waiter
        # parked before it still got the finished job, result included.
        [(status, body)] = replies
        assert status == 200
        assert body["status"] == "done" and body["result"]["solved"] is True
        with pytest.raises((ConnectionError, OSError)):
            RoutingClient(port=gateway.port, timeout=5).health()
