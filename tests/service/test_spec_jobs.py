"""RouterSpec integration with jobs, cache keys, and portfolio entrants."""

import json

import pytest

from repro.api import RouterSpec, SpecError
from repro.circuits.random_circuits import random_circuit
from repro.hardware.topologies import line_architecture
from repro.service.jobs import RoutingJob
from repro.service.portfolio import entrant_job


def make_job(router="sabre", options=None):
    return RoutingJob.from_circuit(random_circuit(4, 10, seed=1),
                                   line_architecture(5), router=router,
                                   options=options)


class TestJobsFromSpecs:
    def test_from_circuit_parses_spec_strings(self):
        job = make_job(router="sabre:seed=7,lookahead_size=5")
        assert job.router == "sabre"
        assert job.options == {"seed": 7, "lookahead_size": 5}

    def test_from_spec_validates(self):
        circuit = random_circuit(4, 10, seed=1)
        arch = line_architecture(5)
        job = RoutingJob.from_spec(circuit, arch, "satmap:slice_size=10")
        assert job.spec() == RouterSpec("satmap", {"slice_size": 10})
        with pytest.raises(Exception):
            RoutingJob.from_spec(circuit, arch, "satmap:bogus=1")

    @pytest.mark.parametrize("name", ["satmap", "nl-satmap", "noise-satmap",
                                      "cyclic", "hybrid"])
    def test_there_is_no_maxsat_strategy_option(self, name):
        # One MaxSAT search: a spec naming any strategy, even the search
        # itself, is refused when the job is built, not when it runs.
        circuit = random_circuit(4, 10, seed=1)
        arch = line_architecture(5)
        for value in ("linear", "bogus"):
            with pytest.raises(SpecError, match="strategy"):
                RoutingJob.from_spec(circuit, arch, f"{name}:strategy={value}")

    def test_content_payload_embeds_the_canonical_spec_dict(self):
        job = make_job(router="sabre:seed=7")
        payload = json.loads(job.content_payload())
        assert payload["spec"] == {"router": "sabre", "options": {"seed": 7}}
        assert payload["version"] >= 2

    def test_equivalent_spec_spellings_share_a_hash(self):
        by_string = make_job(router="sabre:seed=7")
        by_options = make_job(router="sabre", options={"seed": 7})
        by_spec = make_job(router=RouterSpec("sabre", {"seed": 7}))
        assert by_string.content_hash() == by_options.content_hash()
        assert by_string.content_hash() == by_spec.content_hash()

    def test_different_options_change_the_hash(self):
        assert (make_job(router="sabre:seed=7").content_hash()
                != make_job(router="sabre:seed=8").content_hash())

    def test_with_spec_rekeys_the_same_work(self):
        job = make_job()
        rekeyed = job.with_spec("tket:window_size=9")
        assert rekeyed.qasm == job.qasm
        assert rekeyed.router == "tket"
        assert rekeyed.options == {"window_size": 9}

    def test_construction_paths_hash_identically(self):
        # from_circuit canonicalises option types like from_spec does, so
        # the same configured router hashes the same no matter which API
        # (or scalar spelling) built the job.
        circuit = random_circuit(4, 10, seed=1)
        arch = line_architecture(5)
        by_spec = RoutingJob.from_spec(circuit, arch, "sabre:lookahead_weight=1")
        by_circuit = RoutingJob.from_circuit(circuit, arch,
                                             router="sabre:lookahead_weight=1")
        by_options = RoutingJob.from_circuit(
            circuit, arch, router="sabre", options={"lookahead_weight": 1.0})
        assert by_spec.content_hash() == by_circuit.content_hash()
        assert by_spec.content_hash() == by_options.content_hash()

    def test_from_circuit_rejects_unknown_options_at_submission(self):
        import pytest

        with pytest.raises(Exception):
            make_job(router="sabre:warp_factor=9")

    def test_from_circuit_rejects_out_of_range_options_at_submission(self):
        import pytest

        with pytest.raises(ValueError, match="slice_size"):
            make_job(router="satmap:slice_size=-1")


class TestBudgetKeying:
    def test_spec_budget_wins_in_the_cache_key(self):
        # A time_budget carried in the job's spec is the one the worker
        # runs with, so it must key the cache too: a 0.5s-budget job and a
        # plain job under a 10s service budget may never share an entry.
        from repro.service import BatchRoutingService

        with BatchRoutingService(mode="serial", time_budget=10.0,
                                 cache=False) as service:
            explicit = make_job(router="sabre:time_budget=0.5")
            plain = make_job(router="sabre")
            key_explicit = service._key_job(explicit, 10.0)
            key_plain = service._key_job(plain, 10.0)
            assert key_explicit.content_hash() != key_plain.content_hash()
            assert key_explicit.options["time_budget"] == 0.5
            assert key_plain.options["time_budget"] == 10.0


class TestPortfolioEntrants:
    def test_entrants_accept_configured_specs(self):
        job = make_job(router="satmap", options={"slice_size": 25})
        entrant = entrant_job(job, "sabre:seed=3")
        assert entrant.router == "sabre"
        assert entrant.options == {"seed": 3}

    def test_same_router_entrant_inherits_job_options(self):
        job = make_job(router="satmap", options={"slice_size": 25})
        entrant = entrant_job(job, "satmap")
        assert entrant.options == {"slice_size": 25}

    def test_same_router_entrant_options_win_over_jobs(self):
        job = make_job(router="satmap", options={"slice_size": 25})
        entrant = entrant_job(job, "satmap:slice_size=10")
        assert entrant.options == {"slice_size": 10}
