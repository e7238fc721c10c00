"""repro.route / RouteRequest end-to-end, plus the deprecation shims."""

import pytest

import repro
from repro.api import RouterSpec, get_router
from repro.circuits.random_circuits import random_circuit
from repro.core.verifier import verify_routing
from repro.hardware.topologies import reduced_tokyo_architecture

ARCH = reduced_tokyo_architecture(6)

#: Acceptance grid: every family reachable by spec, end to end.
SPECS = [
    "satmap:slice_size=25,time_budget=10",
    "nl-satmap:time_budget=10",
    "noise-satmap:time_budget=10",
    "hybrid:time_budget=10",
    "cyclic:time_budget=10",
    "sabre",
    "tket",
    "astar",
    "bmt",
    "naive",
]


def small_circuit(seed: int = 3):
    return random_circuit(num_qubits=4, num_two_qubit_gates=6, seed=seed)


class TestRouteConvenience:
    @pytest.mark.parametrize("spec", SPECS)
    def test_route_solves_and_verifies(self, spec):
        circuit = small_circuit()
        result = repro.route(circuit, ARCH, spec)
        assert result.solved, (spec, result.status, result.notes)
        verify_routing(circuit, result.routed_circuit, result.initial_mapping,
                       ARCH)

    def test_route_kwargs_merge_into_the_spec(self):
        circuit = small_circuit()
        direct = repro.route(circuit, ARCH, "sabre:seed=2,time_budget=5")
        merged = repro.route(circuit, ARCH, "sabre", seed=2, time_budget=5)
        assert direct.swap_count == merged.swap_count

    def test_route_accepts_spec_objects_and_dicts(self):
        circuit = small_circuit()
        spec = RouterSpec("naive", {"smart_initial_mapping": True})
        by_object = repro.route(circuit, ARCH, spec)
        by_dict = repro.route(circuit, ARCH, spec.to_dict())
        assert by_object.swap_count == by_dict.swap_count

    def test_cyclic_spec_routes_repeated_blocks(self):
        block = small_circuit()
        result = repro.route(block, ARCH, "cyclic:cycles=3,time_budget=10")
        assert result.solved
        assert result.final_mapping == result.initial_mapping
        assert result.circuit_name.endswith("_x3")


class TestRouteRequest:
    def test_request_validates_its_spec(self):
        with pytest.raises(Exception):
            repro.RouteRequest(small_circuit(), ARCH, spec="satmap:bogus=1")

    def test_request_run_equals_direct_route(self):
        request = repro.RouteRequest(small_circuit(), ARCH, spec="sabre:seed=5")
        result = request.run()
        assert result.solved
        assert result.router_name == "SABRE"

    def test_request_to_job_round_trips_the_spec(self):
        request = repro.RouteRequest(small_circuit(), ARCH,
                                     spec="sabre:seed=5", name="probe")
        job = request.to_job()
        assert job.router == "sabre"
        assert job.options == {"seed": 5}
        assert job.name == "probe"
        # The job's cache identity is derived from the canonical spec dict.
        assert '"spec"' in job.content_payload()
        assert job.spec().to_dict() in [request.spec.to_dict()]

    def test_request_describe_is_json_ready(self):
        import json

        request = repro.RouteRequest(small_circuit(), ARCH, spec="naive")
        json.dumps(request.describe())


class TestOldConstructorsStillWork:
    def test_satmap_constructor_unchanged(self):
        circuit = small_circuit()
        result = repro.SatMapRouter(slice_size=25, time_budget=10).route(
            circuit, ARCH)
        assert result.solved

    def test_noise_aware_explicit_model_unchanged(self):
        from repro.hardware.noise import NoiseModel

        circuit = small_circuit()
        router = repro.NoiseAwareSatMapRouter(NoiseModel.uniform(ARCH),
                                              time_budget=10)
        result = router.route(circuit, ARCH)
        assert result.solved
        assert result.objective_value is not None

    def test_route_cyclic_function_unchanged(self):
        block = small_circuit()
        result = repro.route_cyclic(
            block, 2, ARCH, router=repro.SatMapRouter(time_budget=10,
                                                      verify=False))
        assert result.solved
