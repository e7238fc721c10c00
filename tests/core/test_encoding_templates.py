"""Per-shape encoding templates and byte-backed native models.

A template holds every gate-independent clause of one encoding shape; an
encode replays it around a fresh gate-adjacency family.
These tests pin the guarantees that make the replay safe: a warm encode
(template reused from another circuit of the same shape) is identical to a
cold one, down to what a live session ingests and answers; the cache stays
inside its byte budget; and the native core's byte-backed models read
exactly like dict models.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.encoder import (
    TEMPLATE_CACHE_BYTES,
    EncodingOptions,
    QmrEncoder,
    TemplateCache,
    template_cache,
)
from repro.core.extraction import extract_solution
from repro.hardware.topologies import line_architecture, reduced_tokyo_architecture
from repro.maxsat import MaxSatSolver
from repro.sat.backends import native_available
from repro.sat.dimacs import write_wcnf
from repro.sat.session import SatSession

from test_encoding_golden import CASES, GOLDEN, encoding_digest

BACKENDS = ["python", pytest.param("native", marks=pytest.mark.skipif(
    not native_available(), reason="compiled SAT core not built"))]


@pytest.fixture(autouse=True)
def cold_cache():
    template_cache().clear()
    yield
    template_cache().clear()


def _fingerprint(encoding) -> tuple:
    return (write_wcnf(encoding.builder.to_dimacs()), encoding.num_variables,
            encoding.swap_slots)


class TestColdAndWarm:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_golden_case_hashes_the_same_cold_and_warm(self, name):
        cold = encoding_digest(*CASES[name])
        cached = len(template_cache())
        warm = encoding_digest(*CASES[name])
        assert cold == warm == GOLDEN[name]
        # The warm encode reused the cold one's template.
        assert len(template_cache()) == cached == 1

    def test_a_noise_aware_encode_replays_the_plain_template(self):
        architecture, circuit, options, _ = CASES["noise"]
        plain = {key: value for key, value in options.items()
                 if key != "noise_model"}
        encoding_digest(architecture, circuit, plain)
        assert len(template_cache()) == 1
        assert encoding_digest(architecture, circuit, options) == GOLDEN["noise"]
        assert len(template_cache()) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(12))
    def test_random_shapes_replay_identically_into_live_sessions(
            self, backend, seed):
        rng = random.Random(seed)
        architecture = rng.choice([line_architecture(5),
                                   reduced_tokyo_architecture(8)])
        num_logical = rng.randint(2, 4)
        pairs = [tuple(rng.sample(range(num_logical), 2))
                 for _ in range(rng.randint(1, 6))]
        pinned = rng.random() < 0.6
        pin = dict(zip(range(num_logical),
                       rng.sample(range(architecture.num_qubits), num_logical)))
        options = dict(
            swaps_per_gate=rng.choice([1, 1, 2]),
            leading_slots=(rng.choice([1, 2, 3])
                           if pinned or rng.random() < 0.3 else None),
            cyclic=rng.random() < 0.3,
        )
        encoder = QmrEncoder(architecture, EncodingOptions(**options))
        cold = encoder.encode_interactions(pairs, num_logical)
        # Another circuit of the same shape: the same gates on relabelled
        # qubits keep the step count, so it shares the template.
        relabel = rng.sample(range(num_logical), num_logical)
        template_cache().clear()
        encoder.encode_interactions([(relabel[a], relabel[b]) for a, b in pairs],
                                    num_logical)
        assert len(template_cache()) == 1
        warm = encoder.encode_interactions(pairs, num_logical)
        assert len(template_cache()) == 1

        assert _fingerprint(warm) == _fingerprint(cold)
        assumptions = cold.initial_mapping_assumptions(pin) if pinned else []
        assert warm.initial_mapping_assumptions(pin) == \
            cold.initial_mapping_assumptions(pin)
        outcomes = []
        for encoding in (cold, warm):
            session = SatSession(backend=backend)
            result = MaxSatSolver(session=session).solve(
                encoding.builder, time_budget=60, assumptions=assumptions)
            solution = (extract_solution(encoding, result.model)
                        if result.has_model else None)
            outcomes.append((result.status, result.cost, dict(result.model),
                             solution, session.solver_stats(),
                             session.solver.export_clauses()))
        assert outcomes[0] == outcomes[1]


class TestTemplateCache:
    def _templates(self):
        architecture = reduced_tokyo_architecture(8)
        encoder = QmrEncoder(architecture, EncodingOptions(leading_slots=1))
        return [encoder.template(num_logical, num_steps)
                for num_logical in (3, 5) for num_steps in (1, 4, 9)]

    def test_never_exceeds_its_byte_budget(self):
        templates = self._templates()
        sizes = sorted(template.nbytes for template in templates)
        budget = sizes[len(sizes) // 2] * 2
        cache = TemplateCache(budget)
        for round_ in range(3):
            for key, template in enumerate(templates):
                cache.put((round_, key), template)
                assert cache.nbytes <= budget
                assert cache.nbytes == sum(
                    entry.nbytes for entry in cache._entries.values())
        assert 0 < len(cache) < len(templates)

    def test_a_template_larger_than_the_budget_is_not_stored(self):
        template = self._templates()[-1]
        cache = TemplateCache(template.nbytes - 1)
        cache.put("big", template)
        assert cache.get("big") is None
        assert cache.nbytes == 0

    def test_evicts_the_least_recently_used(self):
        first, second, third = self._templates()[:3]
        cache = TemplateCache(first.nbytes + second.nbytes + third.nbytes - 1)
        cache.put("first", first)
        cache.put("second", second)
        assert cache.get("first") is first  # now the most recent
        cache.put("third", third)
        assert cache.get("second") is None
        assert cache.get("first") is first and cache.get("third") is third

    def test_concurrent_encodes_share_templates_safely(self):
        names = sorted(CASES) * 3
        with ThreadPoolExecutor(max_workers=4) as pool:
            digests = list(pool.map(
                lambda name: encoding_digest(*CASES[name]), names))
        assert digests == [GOLDEN[name] for name in names]

    def test_the_process_cache_stays_inside_its_budget(self):
        for size in (4, 6, 8):
            architecture = line_architecture(size)
            for steps in range(1, 8):
                QmrEncoder(architecture).encode_interactions(
                    [(0, 1), (1, 2)] * steps, size)
        assert 0 < template_cache().nbytes <= TEMPLATE_CACHE_BYTES
        assert template_cache().budget == TEMPLATE_CACHE_BYTES


@pytest.mark.skipif(not native_available(), reason="compiled SAT core not built")
class TestByteBackedModels:
    def _solved(self, **options):
        architecture = reduced_tokyo_architecture(8)
        encoding = QmrEncoder(architecture, EncodingOptions(**options)) \
            .encode_interactions([(0, 1), (2, 3), (0, 3), (1, 4), (2, 4)], 5)
        result = MaxSatSolver(session=SatSession(backend="native")).solve(
            encoding.builder, time_budget=60)
        assert result.has_model
        return encoding, result.model

    @pytest.mark.parametrize("options", [
        {}, {"leading_slots": 1}, {"cyclic": True},
        {"swaps_per_gate": 2, "leading_slots": 2}])
    def test_cost_and_extraction_match_a_dict_model(self, options):
        from repro.sat.native import NativeModel

        encoding, model = self._solved(**options)
        assert isinstance(model, NativeModel)
        plain = dict(model)
        assert model == plain
        builder = encoding.builder
        assert builder.cost_of_model(model) == builder.cost_of_model(plain)
        assert extract_solution(encoding, model) == extract_solution(encoding, plain)

    def test_reads_like_a_read_only_dict(self):
        from repro.sat.native import NativeModel

        model = NativeModel(bytes([0, 1, 0, 1]))
        assert dict(model) == {1: True, 2: False, 3: True}
        assert len(model) == 3 and list(model) == [1, 2, 3]
        assert model[1] is True and model.get(2) is False
        assert model.get(4, "absent") == "absent" and 4 not in model
        assert model.get(0) is None and 0 not in model
        with pytest.raises(KeyError):
            model[4]
        with pytest.raises(TypeError):
            model[1] = False
