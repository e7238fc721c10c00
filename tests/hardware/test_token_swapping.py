"""Tests for approximate token swapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.token_swapping import (
    apply_swaps,
    approximate_token_swapping,
    swap_distance_lower_bound,
)
from repro.hardware.topologies import (
    grid_architecture,
    line_architecture,
    ring_architecture,
    tokyo_architecture,
)


def _route_and_check(architecture, current, target):
    swaps = approximate_token_swapping(architecture, current, target)
    for first, second in swaps:
        assert architecture.are_adjacent(first, second)
    assert apply_swaps(current, swaps) == target
    return swaps


class TestBasicInstances:
    def test_identity_needs_no_swaps(self):
        architecture = line_architecture(4)
        mapping = {0: 0, 1: 1, 2: 2}
        assert approximate_token_swapping(architecture, mapping, dict(mapping)) == []

    def test_adjacent_transposition_is_one_swap(self):
        architecture = line_architecture(3)
        swaps = _route_and_check(architecture, {0: 0, 1: 1}, {0: 1, 1: 0})
        assert len(swaps) == 1

    def test_distant_transposition_on_line(self):
        architecture = line_architecture(4)
        swaps = _route_and_check(architecture, {0: 0, 1: 3}, {0: 3, 1: 0})
        # The optimum for swapping tokens at distance 3 is 5 swaps; the
        # 4-approximation may use more but must stay within factor 4.
        assert 5 <= len(swaps) <= 20

    def test_three_cycle_on_ring(self):
        architecture = ring_architecture(3)
        current = {0: 0, 1: 1, 2: 2}
        target = {0: 1, 1: 2, 2: 0}
        swaps = _route_and_check(architecture, current, target)
        assert len(swaps) == 2

    def test_partial_mapping_uses_empty_qubits(self):
        # Only one token placed: it just walks to its destination.
        architecture = line_architecture(5)
        swaps = _route_and_check(architecture, {0: 0}, {0: 4})
        assert len(swaps) == 4

    def test_rejects_mismatched_token_sets(self):
        architecture = line_architecture(3)
        with pytest.raises(ValueError):
            approximate_token_swapping(architecture, {0: 0}, {1: 1})

    def test_rejects_non_injective_mapping(self):
        architecture = line_architecture(3)
        with pytest.raises(ValueError):
            approximate_token_swapping(architecture, {0: 0, 1: 0}, {0: 1, 1: 2})

    def test_rejects_out_of_range_physical(self):
        architecture = line_architecture(3)
        with pytest.raises(ValueError):
            approximate_token_swapping(architecture, {0: 5}, {0: 0})


class TestLowerBound:
    def test_lower_bound_identity(self):
        architecture = line_architecture(4)
        assert swap_distance_lower_bound(architecture, {0: 0}, {0: 0}) == 0

    def test_lower_bound_never_exceeds_achieved(self):
        architecture = grid_architecture(3, 3)
        current = {0: 0, 1: 4, 2: 8}
        target = {0: 8, 1: 0, 2: 4}
        bound = swap_distance_lower_bound(architecture, current, target)
        swaps = _route_and_check(architecture, current, target)
        assert bound <= len(swaps)

    def test_lower_bound_mismatch_rejected(self):
        with pytest.raises(ValueError):
            swap_distance_lower_bound(line_architecture(3), {0: 0}, {1: 0})


class TestApplySwaps:
    def test_apply_single_swap(self):
        assert apply_swaps({0: 0, 1: 1}, [(0, 1)]) == {0: 1, 1: 0}

    def test_apply_swap_with_empty_slot(self):
        assert apply_swaps({0: 0}, [(0, 1), (1, 2)]) == {0: 2}


class TestRandomInstances:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           num_tokens=st.integers(min_value=1, max_value=6))
    def test_random_permutations_on_grid(self, seed, num_tokens):
        import random

        rng = random.Random(seed)
        architecture = grid_architecture(3, 3)
        physical = list(range(architecture.num_qubits))
        sources = rng.sample(physical, num_tokens)
        targets = rng.sample(physical, num_tokens)
        current = {logical: sources[logical] for logical in range(num_tokens)}
        target = {logical: targets[logical] for logical in range(num_tokens)}
        swaps = _route_and_check(architecture, current, target)
        bound = swap_distance_lower_bound(architecture, current, target)
        assert len(swaps) <= max(4 * 2 * bound, 1) + architecture.num_qubits

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_full_permutation_on_tokyo(self, seed):
        import random

        rng = random.Random(seed)
        architecture = tokyo_architecture()
        permutation = list(range(20))
        rng.shuffle(permutation)
        current = {logical: logical for logical in range(20)}
        target = {logical: permutation[logical] for logical in range(20)}
        _route_and_check(architecture, current, target)
