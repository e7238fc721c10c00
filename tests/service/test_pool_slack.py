"""Configurable hard-timeout slack on the worker pool."""

import pytest

from repro.service.pool import HARD_TIMEOUT_SLACK, WorkerPool


class TestPoolSlack:
    def test_default_matches_module_constant(self):
        assert WorkerPool(mode="serial").slack == HARD_TIMEOUT_SLACK

    def test_constructor_override(self):
        assert WorkerPool(mode="serial", slack=5).slack == 5.0
        assert WorkerPool(mode="serial", slack=0).slack == 0.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_SLACK", "2.5")
        assert WorkerPool(mode="serial").slack == 2.5

    def test_constructor_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_SLACK", "2.5")
        assert WorkerPool(mode="serial", slack=7).slack == 7.0

    def test_invalid_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_SLACK", "plenty")
        with pytest.raises(ValueError, match="REPRO_POOL_SLACK"):
            WorkerPool(mode="serial")
        monkeypatch.setenv("REPRO_POOL_SLACK", "-1")
        with pytest.raises(ValueError, match="REPRO_POOL_SLACK"):
            WorkerPool(mode="serial")

    def test_invalid_constructor_value_rejected(self):
        with pytest.raises(ValueError, match="slack"):
            WorkerPool(mode="serial", slack=-3)
        with pytest.raises(ValueError, match="slack"):
            WorkerPool(mode="serial", slack=True)


def _service(value, monkeypatch):
    from repro.service import BatchRoutingService

    BatchRoutingService(mode="serial", cache=False, time_budget=value)


def _fleet_config(value, monkeypatch):
    from repro.cluster import FleetConfig

    FleetConfig(time_budget=value)


def _pool_slack(value, monkeypatch):
    WorkerPool(mode="serial", slack=value)


def _env_slack(value, monkeypatch):
    monkeypatch.setenv("REPRO_POOL_SLACK", str(value))
    WorkerPool(mode="serial")


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("build", [_service, _fleet_config, _pool_slack,
                                   _env_slack],
                         ids=["service-budget", "fleet-budget", "pool-slack",
                              "env-slack"])
def test_non_finite_operator_values_are_rejected(build, value, monkeypatch):
    """A NaN or infinite budget or slack would make every deadline NaN/inf."""
    with pytest.raises(ValueError, match="finite"):
        build(value, monkeypatch)
