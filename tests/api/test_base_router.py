"""BaseRouter scaffolding: protocol conformance, error capture, deadlines."""

import pytest

from repro.api import BaseRouter, Router, RoutingTimeout, format_error_notes
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import cx
from repro.core import (
    CyclicRouter,
    HybridSatMapRouter,
    NoiseAwareSatMapRouter,
    RoutingStatus,
    SatMapRouter,
)
from repro.hardware.topologies import line_architecture
from repro.sat import native
from repro.sat.backends import CROSSCHECK_ENV, native_available


def tiny_circuit() -> QuantumCircuit:
    return QuantumCircuit(3, [cx(0, 1), cx(0, 2)], name="tiny")


class ExplodingRouter(BaseRouter):
    name = "exploding"

    def _route(self, circuit, architecture, deadline):
        return self._inner()

    def _inner(self):
        raise RuntimeError("kaboom")


class SleepyRouter(BaseRouter):
    name = "sleepy"

    def _route(self, circuit, architecture, deadline):
        raise RoutingTimeout


class TestErrorCapture:
    def test_error_notes_record_type_message_and_site(self):
        result = ExplodingRouter(time_budget=1.0).route(
            tiny_circuit(), line_architecture(3))
        assert result.status is RoutingStatus.ERROR
        assert "RuntimeError: kaboom" in result.notes
        # The traceback tail names the failure site, innermost frame first.
        assert "in _inner" in result.notes
        assert "test_base_router.py" in result.notes

    def test_format_error_notes_without_traceback(self):
        notes = format_error_notes(ValueError("plain"))
        assert notes == "ValueError: plain"

    def test_timeout_translates_to_timeout_status(self):
        result = SleepyRouter(time_budget=0.5).route(
            tiny_circuit(), line_architecture(3))
        assert result.status is RoutingStatus.TIMEOUT
        assert result.router_name == "sleepy"

    def test_check_deadline_raises_past_deadline(self):
        with pytest.raises(RoutingTimeout):
            BaseRouter.check_deadline(0.0)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            ExplodingRouter(time_budget=0.0)


@pytest.mark.skipif(not native_available(), reason="compiled SAT core not built")
class TestCrossCheckPropagates:
    """A cross-check disagreement escapes ``route()`` instead of becoming ERROR."""

    def test_a_planted_bad_native_model_raises_through_route(self, monkeypatch):
        monkeypatch.setenv(CROSSCHECK_ENV, "1")
        honest = native.NativeModel
        # Every model the core returns reads all-false from its bytes.
        monkeypatch.setattr(native, "NativeModel",
                            lambda values: honest(bytes(len(values))))
        router = SatMapRouter(solver_backend="native", time_budget=30)
        with pytest.raises(native.CrossCheckError,
                           match="does not satisfy clause"):
            router.route(tiny_circuit(), line_architecture(3))

    def test_honest_native_models_pass_the_cross_check(self, monkeypatch):
        monkeypatch.setenv(CROSSCHECK_ENV, "1")
        result = SatMapRouter(solver_backend="native", time_budget=30).route(
            tiny_circuit(), line_architecture(3))
        assert result.solved


class TestProtocolAdoption:
    def test_satmap_family_subclasses_base_router(self):
        assert issubclass(SatMapRouter, BaseRouter)
        assert issubclass(NoiseAwareSatMapRouter, BaseRouter)
        assert issubclass(HybridSatMapRouter, BaseRouter)
        assert issubclass(CyclicRouter, BaseRouter)

    def test_baselines_subclass_base_router(self):
        from repro.baselines import (
            AStarLayerRouter,
            BmtLikeRouter,
            NaiveShortestPathRouter,
            SabreRouter,
            TketLikeRouter,
        )

        for cls in (AStarLayerRouter, BmtLikeRouter, NaiveShortestPathRouter,
                    SabreRouter, TketLikeRouter):
            assert issubclass(cls, BaseRouter), cls

    def test_protocol_isinstance_is_structural(self):
        class DuckRouter:
            name = "duck"

            def route(self, circuit, architecture):
                return None

        assert isinstance(DuckRouter(), Router)
        assert not isinstance(object(), Router)

    def test_satmap_error_capture_names_the_site(self):
        # SATMAP's scaffolding is now BaseRouter's: a crash inside the solve
        # path surfaces as an ERROR result with the failure site in notes.
        router = SatMapRouter(time_budget=5.0)
        too_big = QuantumCircuit(5, [cx(0, 4)], name="too-big")
        result = router.route(too_big, line_architecture(3))
        assert result.status is RoutingStatus.ERROR
        assert ".py:" in result.notes
