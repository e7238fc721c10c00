"""Regression tests: the cache must only ever serve what was asked for.

A job's content hash names a specific router (or portfolio config); results
produced by anything else -- the fallback rescue, a portfolio race -- must
not be stored under that key, or a later request would be served a
different algorithm's answer forever.
"""

from __future__ import annotations

from repro.circuits.random_circuits import random_circuit
from repro.hardware.topologies import reduced_tokyo_architecture
from repro.service import BatchRoutingService, RoutingJob, is_fallback_result


def make_job(router="satmap", gates=24, seed=3):
    circuit = random_circuit(5, gates, seed=seed, name=f"prov_seed{seed}")
    return RoutingJob.from_circuit(circuit, reduced_tokyo_architecture(6),
                                   router=router)


class TestFallbackProvenance:
    def test_rescued_result_is_not_cached_under_the_primary_key(self, tmp_path):
        """A naive rescue of a timed-out satmap job must not poison the key."""
        job = make_job(gates=30)
        with BatchRoutingService(mode="serial", cache_dir=tmp_path) as service:
            result = service.route_one(job, time_budget=0.02)
        assert result.solved  # best-so-far semantics still hold
        if is_fallback_result(result):
            # the poisoning scenario: the answer came from the fallback
            # router, so the satmap-keyed entry must not exist
            assert len(list(tmp_path.glob("*.json"))) == 0
            assert service.event_log.counts_by_event().get("fallback", 0) == 1
        else:
            # budget was enough after all; the genuine result may be cached
            assert result.router_name == "SATMAP"

    def test_fallback_false_never_substitutes_another_router(self, tmp_path):
        job = make_job(gates=30)
        with BatchRoutingService(mode="serial", cache=False,
                                 fallback=False) as service:
            result = service.route_one(job, time_budget=0.02)
        assert not is_fallback_result(result)
        if result.solved:
            assert result.router_name == "SATMAP"
        else:
            # a timeout stays a timeout record, attributable to satmap
            assert service.event_log.counts_by_event()["failed"] == 1


class TestPortfolioProvenance:
    def test_portfolio_results_use_a_namespaced_cache_key(self, tmp_path):
        job = make_job(gates=10)
        with BatchRoutingService(mode="serial", cache_dir=tmp_path,
                                 portfolio=("sabre", "naive")) as portfolio_service:
            raced = portfolio_service.route_one(job, time_budget=10.0)
        assert raced.solved
        assert len(list(tmp_path.glob("*.json"))) == 1

        # a plain satmap service sharing the same cache dir must NOT be
        # served the portfolio winner
        with BatchRoutingService(mode="serial", cache_dir=tmp_path) as plain:
            result = plain.route_one(job, time_budget=10.0)
        assert plain.cache.hits == 0
        assert result.router_name == "SATMAP"

        # while the portfolio config itself hits its own entry
        with BatchRoutingService(mode="serial", cache_dir=tmp_path,
                                 portfolio=("sabre", "naive")) as again:
            rehit = again.route_one(job, time_budget=10.0)
        assert again.cache.hits == 1
        assert rehit.swap_count == raced.swap_count


class TestExecutionConfigKeying:
    def test_portfolio_keys_do_not_collide_across_router_options(self, tmp_path):
        """Same circuit, different satmap options: distinct portfolio entries."""
        base = make_job(gates=10)
        loose = base.with_router("satmap", options={"swaps_per_gate": 2})
        with BatchRoutingService(mode="serial", cache_dir=tmp_path,
                                 portfolio=("satmap", "naive")) as service:
            results = service.route_batch([base, loose], time_budget=10.0)
        assert all(result.solved for result in results)
        assert service.cache.hits == 0  # the second job is NOT a duplicate
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_low_budget_results_are_not_served_to_high_budget_runs(self, tmp_path):
        """The effective time budget is part of the cache key."""
        job = make_job(router="sabre", gates=10)
        with BatchRoutingService(mode="serial", cache_dir=tmp_path) as service:
            service.route_one(job, time_budget=1.0)
            service.route_one(job, time_budget=60.0)
            assert service.cache.hits == 0
            assert len(list(tmp_path.glob("*.json"))) == 2
            # while an identical budget does hit
            service.route_one(job, time_budget=60.0)
            assert service.cache.hits == 1


class TestCrashTolerance:
    def test_serial_race_survives_a_crashing_entrant(self, monkeypatch):
        """Serial path matches the pool path: a crashed entrant just loses."""
        import repro.service.portfolio as portfolio_module
        from repro.service.portfolio import race_portfolio

        real_execute = portfolio_module.execute_job

        def flaky_execute(sub_job, time_budget, fallback=True):
            if sub_job.router == "sabre":
                raise RuntimeError("entrant crashed")
            return real_execute(sub_job, time_budget, fallback=fallback)

        monkeypatch.setattr(portfolio_module, "execute_job", flaky_execute)
        winner = race_portfolio(make_job(gates=8), time_budget=10.0,
                                entrants=("sabre", "naive"), pool=None)
        assert winner.solved
        assert winner.router_name == "naive"

    def test_cache_put_survives_disk_errors(self, tmp_path, monkeypatch):
        """A full disk degrades to memory-only caching, not a failed batch."""
        from pathlib import Path

        from repro.api import get_router
        from repro.service import ResultCache

        job = make_job(router="sabre", gates=8)
        result = get_router("sabre", time_budget=10.0).route(job.circuit(), job.architecture())
        cache = ResultCache(directory=tmp_path)
        monkeypatch.setattr(Path, "write_text",
                            lambda self, *a, **k: (_ for _ in ()).throw(
                                OSError("disk full")))
        assert cache.put(job, result)  # stored in memory despite the disk error
        assert cache.get(job) is not None


class TestDisplayNames:
    def test_registry_display_names_match_router_self_reports(self):
        from repro.api import display_name

        assert display_name("satmap") == "SATMAP"
        assert display_name("sabre") == "SABRE"
        assert display_name("naive") == "naive"
        assert display_name("not-a-router") == "not-a-router"


class TestDedupTelemetry:
    def test_uncached_duplicates_still_count_as_finished_work(self):
        job = make_job(router="sabre", gates=8)
        with BatchRoutingService(mode="serial", cache=False) as service:
            results = service.route_batch([job, job, job], time_budget=10.0)
        assert all(result.solved for result in results)
        # 1 computed + 2 dedup-served: throughput accounting sees all 3
        assert service.jobs_finished == 3
        assert service.event_log.counts_by_event()["cache-hit"] == 2
